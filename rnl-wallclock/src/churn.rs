//! `lab_churn`'s control-plane load: closed-loop lab cycles on one API
//! connection over a pool of registered router pairs.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::api::Api;
use crate::traffic::{Clock, Link};

/// Reservation window of a churned lab, µs of server clock. A pool pair
/// is reused only once its previous window has closed, so no booking
/// ever conflicts.
const WINDOW_US: u64 = 1_000_000;

/// What the churn loop did.
#[derive(Debug, Default)]
pub struct Churn {
    pub cycles: u64,
    pub secs: f64,
    /// `create_design` written → `deploy` reply read, per cycle, ms.
    pub deploy_ms: Vec<f64>,
    /// Cycles that waited for a pair's window to close: the pool, not
    /// the server, bounded the loop.
    pub paced: u64,
    pub error: Option<String>,
}

/// Run lab cycles — `create_design`, `add_device`×2, `connect_ports`,
/// `reserve`, `deploy`, `teardown` — from the start of phase `from`
/// for `secs`. Pool pair `j` is site A router `first + j` and site B
/// router `first + j`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    api: &mut Api,
    clock: Clock,
    link: &Link,
    first: usize,
    pairs: usize,
    started: &mpsc::Receiver<usize>,
    from: usize,
    secs: f64,
) -> Churn {
    let mut churn = Churn::default();
    loop {
        match started.recv_timeout(Duration::from_secs(60)) {
            Ok(k) if k == from => break,
            Ok(_) => continue,
            Err(_) => {
                churn.error = Some("the background stream never started".to_string());
                return churn;
            }
        }
    }
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut free_at = vec![start; pairs];
    while Instant::now() < end && !link.stop.load(Ordering::SeqCst) {
        let j = churn.cycles as usize % pairs;
        let now = Instant::now();
        if free_at[j] > now {
            churn.paced += 1;
            std::thread::sleep(free_at[j] - now);
        }
        // The window opens at a lower bound of the server's clock, so it
        // covers the deploy a few ops later.
        let opened = Instant::now();
        let from_us = clock.now_us();
        let (a, b) = (link.a_routers[first + j], link.b_routers[first + j]);
        let cycle = api
            .deploy_lab(
                &format!("churn-{}", churn.cycles),
                a,
                b,
                (from_us, from_us + WINDOW_US),
            )
            .and_then(|lab| api.teardown(lab.deployment).map(|()| lab));
        match cycle {
            Ok(lab) => churn.deploy_ms.push(lab.deploy_ms),
            Err(e) => {
                churn.error = Some(e);
                break;
            }
        }
        free_at[j] = opened + Duration::from_micros(WINDOW_US + 1_000);
        churn.cycles += 1;
    }
    churn.secs = start.elapsed().as_secs_f64();
    churn
}
