//! CPU placement of the measuring thread.
//!
//! On a small VM the vCPUs do not run at the same speed (one may share its
//! physical core with another tenant), and the scheduler keeps a lone busy
//! thread on one of them for long stretches, so an unpinned run measures
//! whichever vCPU it happened to land on. The single-client passes
//! therefore take turns on every allowed CPU, switching at most once a
//! second so migrations stay rare; multi-threaded passes run unpinned.

use std::time::{Duration, Instant};

/// How long the measuring thread stays on one CPU.
const TURN: Duration = Duration::from_secs(1);

pub struct Placement {
    /// CPUs the process may run on; empty where affinity is unsupported.
    cpus: Vec<usize>,
    next: usize,
    turn_ends: Option<Instant>,
}

impl Placement {
    pub fn new() -> Self {
        Placement {
            cpus: sys::allowed_cpus(),
            next: 0,
            turn_ends: None,
        }
    }

    /// Moves the calling thread to the next allowed CPU in turn.
    pub fn rotate(&mut self) {
        if let Some(&cpu) = self.cpus.get(self.next % self.cpus.len().max(1)) {
            sys::pin(&[cpu]);
            self.next += 1;
        }
        self.turn_ends = Some(Instant::now() + TURN);
    }

    /// [`Placement::rotate`] once the current turn has lasted `TURN`.
    pub fn tick(&mut self) {
        if self.turn_ends.is_none_or(|end| Instant::now() >= end) {
            self.rotate();
        }
    }

    /// Lets the calling thread (and threads it spawns) run on every
    /// allowed CPU again.
    pub fn release(&mut self) {
        if !self.cpus.is_empty() {
            sys::pin(&self.cpus);
        }
        self.turn_ends = None;
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc and musl: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable mask of exactly the size passed, live
        // for the whole call; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..1024)
            .filter(|&cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; a refused request leaves
    /// the placement as it was.
    pub fn pin(cpus: &[usize]) {
        let mut set = CpuSet([0; 16]);
        for &cpu in cpus.iter().filter(|&&c| c < 1024) {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a readable mask of exactly the size passed, live
        // for the whole call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_: &[usize]) {}
}
