//! Child processes of the program under test: `kastio serve` daemons
//! (with their set-up time and peak memory) and `kastio cluster` runs.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Instant;

use crate::wire::Conn;

use std::os::raw::c_long;

mod sys {
    use std::os::raw::{c_int, c_long};

    /// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: [c_long; 2],
        pub ru_stime: [c_long; 2],
        pub ru_maxrss: c_long,
        pub rest: [c_long; 13],
    }

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    }
}

/// How a child process ended.
struct Reaped {
    status: ExitStatus,
    /// User plus system CPU time, in seconds.
    cpu_s: f64,
    /// Peak resident set size in MiB: the VmHWM of the whole process
    /// lifetime, which `/proc` no longer shows once the process has exited.
    peak_rss_mib: f64,
}

/// Waits for `child` to exit.
fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0;
    let mut usage = sys::Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are initialised locals that outlive
        // the call, and `usage` has the layout of the platform's
        // `struct rusage`. The pid is our own unreaped child.
        let rc = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            let seconds = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
            return Ok(Reaped {
                status: ExitStatus::from_raw(status),
                cpu_s: seconds(usage.ru_utime) + seconds(usage.ru_stime),
                peak_rss_mib: usage.ru_maxrss as f64 / 1024.0,
            });
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// A running `kastio serve`.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    reaped: bool,
    /// `host:port` the daemon listens on.
    pub addr: String,
    /// Spawn to the first `HELLO` answered `OK`, in seconds.
    pub setup_s: f64,
}

impl Daemon {
    /// Starts `kastio serve --port 0 <args>` and completes a `HELLO` on
    /// the returned connection; the daemon's stderr goes to `log`.
    pub fn start(kastio: &Path, args: &[String], log: &Path) -> io::Result<(Daemon, Conn)> {
        let started = Instant::now();
        let mut child = Command::new(kastio)
            .args(["serve", "--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Daemon {
            child,
            _stdout: BufReader::new(stdout),
            reaped: false,
            addr: String::new(),
            setup_s: 0.0,
        };
        let mut line = String::new();
        while daemon._stdout.read_line(&mut line)? > 0 {
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                daemon.addr = addr.to_string();
                break;
            }
            line.clear();
        }
        if daemon.addr.is_empty() {
            return Err(io::Error::other(format!(
                "kastio serve exited before listening; see {}",
                log.display()
            )));
        }
        let mut conn = Conn::connect(&daemon.addr)?;
        conn.hello()?;
        daemon.setup_s = started.elapsed().as_secs_f64();
        Ok((daemon, conn))
    }

    /// User plus system CPU time the daemon has used so far, in seconds
    /// (`/proc/<pid>/stat`, in units of the kernel's 100 Hz `USER_HZ`).
    /// Time the hypervisor steals from the machine is not charged to it.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the line.
        let fields: Vec<&str> =
            stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields.get(i).and_then(|f| f.parse::<u64>().ok()).map(|t| t as f64 / 100.0).ok_or_else(
                || io::Error::other(format!("unexpected /proc/{}/stat: {stat}", self.child.id())),
            )
        };
        Ok(ticks(11)? + ticks(12)?)
    }

    /// Kills the daemon and returns its peak resident set size in MiB.
    pub fn stop(mut self) -> io::Result<f64> {
        self.child.kill()?;
        self.reaped = true;
        Ok(reap(&self.child)?.peak_rss_mib)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One finished `kastio cluster` run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mib: f64,
    /// Whether it exited 0.
    pub success: bool,
    /// Everything it printed on stdout.
    pub stdout: String,
}

/// Runs `kastio cluster <dir>` to completion; its stderr goes to `log`.
pub fn run_cluster(kastio: &Path, dir: &Path, log: &Path) -> io::Result<ClusterRun> {
    let started = Instant::now();
    let mut child = Command::new(kastio)
        .arg("cluster")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(log)?)
        .spawn()?;
    let mut stdout = String::new();
    let read = child.stdout.take().expect("stdout was piped").read_to_string(&mut stdout);
    let reaped = reap(&child)?;
    read?;
    Ok(ClusterRun {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: reaped.cpu_s,
        peak_rss_mib: reaped.peak_rss_mib,
        success: reaped.status.success(),
        stdout,
    })
}
