//! Helpers shared by the subprocess `greensprint serve` tests.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Spawn `cmd`, a `greensprint serve` run listening on an ephemeral port
/// (`--listen 127.0.0.1:0`), and return it with the address it bound,
/// read from its `serve: listening on ADDR` stderr line. The rest of
/// stderr (panic reports of killed racks, the summary blocks) is drained
/// on a thread, so the daemon never blocks on a full pipe.
pub fn spawn_listening(cmd: &mut Command) -> (Child, SocketAddr) {
    let mut child = cmd.stderr(Stdio::piped()).spawn().expect("daemon starts");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = loop {
        let mut line = String::new();
        let read = stderr.read_line(&mut line).expect("daemon stderr");
        assert!(read > 0, "the daemon exited before it listened");
        if let Some(a) = line.trim().strip_prefix("serve: listening on ") {
            break a.parse().expect("a socket address");
        }
    };
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    (child, addr)
}
