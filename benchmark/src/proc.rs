//! Child processes: the measured `effpi-cli` one-shots and daemons.
//!
//! A child is reaped with `wait4`, the one call that returns its peak RSS
//! and CPU time along with its exit status; `std` links libc, so declaring
//! the two functions used here adds no dependency.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is Linux LP64's");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux LP64: two timevals and fourteen longs, of which
/// only the first (`ru_maxrss`, in KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// No one-shot or daemon shutdown may take longer; past it the child is
/// killed and the operation fails.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// How a reaped child ended and what it cost.
#[derive(Clone, Debug)]
pub struct Reaped {
    /// Exit code; `None` when a signal ended the child (the timeout's kill).
    pub code: Option<i32>,
    /// Spawn → exit.
    pub wall: Duration,
    /// User + system CPU time.
    pub cpu: Duration,
    pub peak_rss_mb: f64,
}

/// Kills a child that outlives `CHILD_TIMEOUT`. Disarming (the child ended
/// in time) wakes the thread through the dropped sender and joins it.
struct Watchdog {
    done: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(child: &Child) -> Watchdog {
        let pid = child.id() as i32;
        let (done, expired) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if expired.recv_timeout(CHILD_TIMEOUT) == Err(mpsc::RecvTimeoutError::Timeout) {
                // SAFETY: `kill` takes plain integers and touches no memory
                // of this process.
                unsafe { kill(pid, SIGKILL) };
            }
        });
        Watchdog { done, thread }
    }

    fn disarm(self) {
        drop(self.done);
        self.thread.join().expect("the watchdog does not panic");
    }
}

/// Blocks until `child` exits and reaps it. `wall` runs from `spawned`.
fn reap(child: &Child, spawned: Instant) -> io::Result<Reaped> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both pointers are to live, writable locals of the types
    // `wait4` fills in; `Rusage` has the kernel's layout (checked above).
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = spawned.elapsed();
    if got != pid {
        return Err(io::Error::last_os_error());
    }
    let seconds = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    Ok(Reaped {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        wall,
        cpu: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Runs `command` to completion, returning its standard output and cost.
/// The child's standard error is passed through.
pub fn run(command: &mut Command) -> io::Result<(String, Reaped)> {
    let spawned = Instant::now();
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let watchdog = Watchdog::arm(&child);
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let reaped = reap(&child, spawned);
    watchdog.disarm();
    read?;
    Ok((stdout, reaped?))
}

/// Where the build put `effpi-cli`, and how to get it there.
pub struct Product {
    pub cli: PathBuf,
}

impl Product {
    /// Builds `effpi-cli` in release mode from the sources beside this
    /// package (a no-op when it is up to date) and returns its path.
    pub fn build(root: &Path, target_dir: &Path) -> io::Result<Product> {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "effpi-cli",
            ])
            .current_dir(root)
            .env("CARGO_TARGET_DIR", target_dir)
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other("building effpi-cli failed"));
        }
        Ok(Product {
            cli: target_dir.join("release/effpi-cli"),
        })
    }

    pub fn command(&self) -> Command {
        Command::new(&self.cli)
    }
}

/// How a daemon is reached.
#[derive(Clone, Debug)]
pub enum Endpoint {
    Tcp(String),
    Unix(PathBuf),
}

impl Endpoint {
    pub fn connect(&self) -> io::Result<serve::Client> {
        match self {
            Endpoint::Tcp(addr) => serve::Client::connect_tcp(addr),
            Endpoint::Unix(path) => serve::Client::connect_unix(path),
        }
    }
}

/// A running `effpi-cli serve` child. Dropping it without [`Daemon::stop`]
/// kills it, so no failure path leaves a process behind.
pub struct Daemon {
    child: Option<Child>,
    spawned: Instant,
    stdout: BufReader<ChildStdout>,
    /// Spawn → the last "listening" line.
    pub start: Duration,
    pub tcp: Option<Endpoint>,
    pub unix: Option<Endpoint>,
}

impl Daemon {
    /// Spawns `effpi-cli serve ARGS` and waits until it listens on every
    /// endpoint the arguments name.
    pub fn spawn(product: &Product, args: &[&str]) -> io::Result<Daemon> {
        let spawned = Instant::now();
        let mut child = product
            .command()
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            spawned,
            stdout,
            start: Duration::ZERO,
            tcp: None,
            unix: None,
        };
        let expected = ["--listen", "--uds"]
            .iter()
            .filter(|flag| args.contains(flag))
            .count();
        for _ in 0..expected {
            let mut line = String::new();
            if daemon.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("the daemon exited before listening"));
            }
            daemon.start = spawned.elapsed();
            let line = line.trim();
            if let Some(addr) = line.strip_prefix("effpi-serve listening on tcp://") {
                daemon.tcp = Some(Endpoint::Tcp(addr.to_string()));
            } else if let Some(path) = line.strip_prefix("effpi-serve listening on unix:") {
                daemon.unix = Some(Endpoint::Unix(PathBuf::from(path)));
            } else {
                return Err(io::Error::other(format!("unexpected daemon line: {line}")));
            }
        }
        Ok(daemon)
    }

    /// Asks the daemon to drain and exit, and reaps it. `wall` is the
    /// daemon's whole life.
    pub fn stop(mut self) -> io::Result<Reaped> {
        let endpoint = self.tcp.as_ref().or(self.unix.as_ref()).expect("listens");
        let mut client = endpoint.connect()?;
        client.set_timeout(Some(CHILD_TIMEOUT))?;
        client
            .shutdown_server()
            .map_err(|e| io::Error::other(e.to_string()))?;
        // From here on nothing returns before the child is reaped (`reap`
        // waits with `wait4`, which clippy does not recognise as a wait).
        #[allow(clippy::zombie_processes)]
        let child = self.child.take().expect("stop consumes the daemon");
        let watchdog = Watchdog::arm(&child);
        // Reading to the end of the banner and the farewell returns when the
        // daemon exits, and keeps it from ever blocking on a full pipe.
        let drained = io::copy(&mut self.stdout, &mut io::sink());
        let reaped = reap(&child, self.spawned);
        watchdog.disarm();
        drained?;
        reaped
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
