//! The closed-loop client connection and the serving processes it talks
//! to.

use pdb_server::protocol::{self, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply later than this counts the request as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a serving process may take to announce readiness or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// One request/reply exchange as the client saw it.
pub struct Exchange {
    pub request_line: String,
    pub response_line: String,
    pub response: Response,
    pub start: Instant,
    /// From before encoding the request to after decoding the reply.
    pub rtt: Duration,
}

/// One newline-JSON connection; each call waits for its reply.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { reader, writer: stream })
    }

    /// Send one request and wait for its reply.  An error reply, a
    /// timeout, a closed connection or an undecodable line is an `Err`.
    pub fn call(&mut self, request: &Request) -> Result<Exchange, String> {
        let start = Instant::now();
        let request_line = protocol::encode(request).map_err(|e| e.to_string())?;
        let mut wire = String::with_capacity(request_line.len() + 1);
        wire.push_str(&request_line);
        wire.push('\n');
        self.writer.write_all(wire.as_bytes()).map_err(|e| format!("sending: {e}"))?;
        let mut response_line = String::new();
        match self.reader.read_line(&mut response_line) {
            Ok(0) => return Err("connection closed before the reply".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("waiting for the reply: {e}")),
        }
        let trimmed_len = response_line.trim_end().len();
        response_line.truncate(trimmed_len);
        let response = protocol::decode_response(&response_line)
            .map_err(|e| format!("undecodable reply: {e}"))?;
        let rtt = start.elapsed();
        if let Response::Error(reply) = &response {
            return Err(format!("{} failed: {}", request.verb(), reply.message));
        }
        Ok(Exchange { request_line, response_line, response, start, rtt })
    }
}

/// A running serving tier: one server process, or one router process
/// with its shard processes.
pub struct Tier {
    child: Child,
    pub addr: SocketAddr,
    /// The router's shards (empty for a single server), by shard index.
    pub shards: Vec<(u32, SocketAddr)>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Tier {
    /// Start `servebench serve` over `store`.
    pub fn server(store: &Path, compact_every: u64) -> Result<Self, String> {
        Self::spawn(&[
            "serve".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--threads".into(),
            "1".into(),
            "--compact-every".into(),
            compact_every.to_string(),
            "--store-dir".into(),
            store.display().to_string(),
        ])
    }

    /// Start `servebench fleet-serve`: a router over
    /// [`SHARDS`](crate::workload::SHARDS) store-backed shard processes
    /// journalling into `store/shard-<i>`.
    pub fn fleet(store: &Path, compact_every: u64) -> Result<Self, String> {
        Self::spawn(&[
            "fleet-serve".into(),
            "--compact-every".into(),
            compact_every.to_string(),
            "--store-dir".into(),
            store.display().to_string(),
        ])
    }

    fn spawn(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", args[0]))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader thread forwards readiness lines and then keeps the
        // pipe drained until the process exits.
        let drain = std::thread::spawn(move || forward_lines(stdout, &tx));
        let mut tier = Self {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            shards: Vec::new(),
            drain: Some(drain),
        };
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line: String = rx
                .recv_timeout(left)
                .map_err(|_| format!("{} did not announce readiness", args[0]))?;
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["pdb-server", "listening", "on", addr, ..]
                | ["pdb-fleet", "router", "listening", "on", addr, ..] => {
                    tier.addr =
                        addr.parse().map_err(|e| format!("readiness line {line:?}: {e}"))?;
                    return Ok(tier);
                }
                ["pdb-fleet", "shard", _, "pid", pid, "listening", "on", addr] => {
                    let pid = pid.parse().map_err(|e| format!("{line:?}: {e}"))?;
                    let addr = addr.parse().map_err(|e| format!("{line:?}: {e}"))?;
                    tier.shards.push((pid, addr));
                }
                _ => {}
            }
        }
    }

    /// Peak resident set of the tier's processes, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let pids = std::iter::once(self.child.id()).chain(self.shards.iter().map(|s| s.0));
        pids.map(|pid| vm_hwm_kib(pid).unwrap_or(0.0)).sum::<f64>() / 1024.0
    }

    /// Ask the tier to drain and stop over `conn`, then reap it.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.call(&Request::Shutdown);
        let exited = self.wait();
        reply.map(|_| ()).and(exited)
    }

    fn wait(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("serving process exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("serving process did not exit after shutdown".to_string()),
                Err(e) => return Err(e.to_string()),
            }
        }
        if let Some(drain) = self.drain.take() {
            drain.join().map_err(|_| "stdout reader panicked".to_string())?;
        }
        Ok(())
    }
}

impl Drop for Tier {
    /// A tier left running by an error path is killed, shards first (a
    /// killed router cannot reap them).
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        for (pid, _) in &self.shards {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn forward_lines(stdout: ChildStdout, tx: &std::sync::mpsc::Sender<String>) {
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) => {
                // After readiness nobody listens; the pipe is still drained.
                let _ = tx.send(line);
            }
            Err(_) => break,
        }
    }
}

/// `VmHWM` of a process, in KiB.
fn vm_hwm_kib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
