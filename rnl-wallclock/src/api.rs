//! The web-services API client: newline-delimited JSON on the API port.
//!
//! The socket sets `TCP_NODELAY` and each request goes out in one write,
//! so the client adds no Nagle or delayed-ACK stall of its own; any stall
//! left in an op's time is the server's.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rnl_server::json::Json;
use rnl_tunnel::msg::RouterId;

use crate::trace::Tracer;

pub struct Api {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: String,
    /// Milliseconds of every op, from request written to reply read.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub errors: u64,
    /// Client-side spans (`api.op` around each call).
    pub tracer: Tracer,
}

/// One deployed lab.
#[derive(Debug, Clone, Copy)]
pub struct Lab {
    pub deployment: u64,
    /// `create_design` written → `deploy` reply read, ms.
    pub deploy_ms: f64,
}

impl Api {
    pub fn connect(addr: SocketAddr, tracing: bool) -> Result<Api, String> {
        let w = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("api connect: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Api {
            w,
            r,
            line: String::new(),
            op_ms: Vec::new(),
            attempted: 0,
            errors: 0,
            tracer: Tracer::new(tracing),
        })
    }

    /// Send one request and wait for its reply; a reply without
    /// `"ok":true` is an error (counted, and returned).
    pub fn call(&mut self, request: &str) -> Result<Json, String> {
        let mut out = String::with_capacity(request.len() + 1);
        out.push_str(request);
        out.push('\n');
        self.attempted += 1;
        self.line.clear();
        let span = self.tracer.enter("api.op");
        let t0 = Instant::now();
        let io = self
            .w
            .write_all(out.as_bytes())
            .and_then(|()| self.r.read_line(&mut self.line));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.exit(span, 1);
        self.op_ms.push(ms);
        let reply = match io {
            Ok(0) => Err("api connection closed".to_string()),
            Ok(_) => Json::parse(self.line.trim()).map_err(|e| format!("bad reply: {e}")),
            Err(e) => Err(format!("api io: {e}")),
        }
        .and_then(|json| match json.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(json),
            _ => Err(format!("{request} -> {}", self.line.trim())),
        });
        if reply.is_err() {
            self.errors += 1;
        }
        reply
    }

    /// Build and deploy a one-wire lab `(a,0)—(b,0)` reserved for
    /// `[start_us, end_us)` on the server clock.
    pub fn deploy_lab(
        &mut self,
        name: &str,
        a: RouterId,
        b: RouterId,
        window: (u64, u64),
    ) -> Result<Lab, String> {
        let t0 = Instant::now();
        self.call(&format!(r#"{{"op":"create_design","name":"{name}"}}"#))?;
        for r in [a, b] {
            self.call(&format!(
                r#"{{"op":"add_device","design":"{name}","router":{}}}"#,
                r.0
            ))?;
        }
        self.call(&format!(
            r#"{{"op":"connect_ports","design":"{name}","a_router":{},"a_port":0,"b_router":{},"b_port":0}}"#,
            a.0, b.0
        ))?;
        self.call(&format!(
            r#"{{"op":"reserve","user":"bench","design":"{name}","start_us":{},"end_us":{}}}"#,
            window.0, window.1
        ))?;
        let reply = self.call(&format!(
            r#"{{"op":"deploy","user":"bench","design":"{name}"}}"#
        ))?;
        let deployment = reply
            .get("deployment")
            .and_then(Json::as_u64)
            .ok_or("deploy reply carries no deployment id")?;
        Ok(Lab {
            deployment,
            deploy_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    pub fn teardown(&mut self, deployment: u64) -> Result<(), String> {
        self.call(&format!(r#"{{"op":"teardown","deployment":{deployment}}}"#))
            .map(|_| ())
    }
}
