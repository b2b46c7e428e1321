//! The server under test: the release `chronos --batch --serve` child
//! process on a durable directory.
//!
//! The benchmark talks TQuel to it over loopback TCP and shell commands
//! (`\advance`, `\checkpoint`) over its stdin — the only two surfaces a
//! user of the binary has.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chronos_db::QueryClient;

/// How long a spawned server may take to announce its address (covers
/// WAL replay of the largest finished directory many times over).
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server process.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    /// Lines the shell printed on stdout (replies to `\` commands).
    replies: Receiver<String>,
    /// The TQuel service address (`127.0.0.1:<port>`).
    pub addr: String,
    readers: Vec<JoinHandle<()>>,
}

/// Forwards a pipe's lines into a channel until EOF, so the child never
/// blocks on a full pipe.
fn forward_lines(pipe: impl std::io::Read + Send + 'static) -> (Receiver<String>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (rx, handle)
}

impl Server {
    /// Starts `binary` on `dir` (created if absent; recovered if not
    /// empty) and waits until the TQuel service is listening.
    pub fn spawn(binary: &Path, dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["--batch", "--serve", "127.0.0.1:0"])
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let (replies, out_reader) = forward_lines(child.stdout.take().expect("piped stdout"));
        let (log, err_reader) = forward_lines(child.stderr.take().expect("piped stderr"));
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut seen = Vec::new();
        let addr = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match log.recv_timeout(left) {
                Ok(line) => {
                    // "TQuel service at 127.0.0.1:PORT (chronos --connect)"
                    if let Some(rest) = line.strip_prefix("TQuel service at ") {
                        break rest.split(' ').next().unwrap_or(rest).to_string();
                    }
                    seen.push(line);
                }
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "server on {} never announced its address; it said: {seen:?}",
                        dir.display()
                    ));
                }
            }
        };
        // Keep draining stderr for the rest of the child's life.
        let drain = std::thread::spawn(move || while log.recv().is_ok() {});
        Ok(Server {
            child,
            stdin,
            replies,
            addr,
            readers: vec![out_reader, err_reader, drain],
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<QueryClient, String> {
        QueryClient::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// Writes one shell command (e.g. `\checkpoint`) to the server's
    /// stdin without waiting for its reply.
    pub fn command(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("cannot write {line:?} to the server's stdin: {e}"))
    }

    /// Writes one shell command and waits for the line it prints.
    pub fn command_reply(&mut self, line: &str) -> Result<String, String> {
        self.command(line)?;
        self.replies
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| format!("no reply to {line:?}"))
    }

    /// Replies to earlier [`command`](Self::command)s that have arrived.
    pub fn drain_replies(&mut self) -> Vec<String> {
        self.replies.try_iter().collect()
    }

    /// The server's peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in the server's /proc status".to_string())
    }

    /// SIGKILLs the server and reaps it: nothing the process had not
    /// already handed to the operating system survives.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Server {
    /// No run, however it ends, leaves a server behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The filesystem type `path` lives on, from `/proc/mounts` (the longest
/// mount point that prefixes the path).
pub fn filesystem_type(path: &Path) -> String {
    let path: PathBuf = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}
