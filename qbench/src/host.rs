//! Host-speed calibration of the end-to-end times.
//!
//! A shared VM does not run at one speed: on the 2-vCPU reference host
//! (Intel Xeon, Sapphire Rapids, KVM guest) the same fixed loop took
//! anywhere from 96 to 176 iterations a second over 90 s, in phases of
//! tens of seconds, with CPU time equal to wall time (no steal). Such a
//! phase moves every wall time of a run by up to ±25%, whatever the
//! program does.
//!
//! Every timed window therefore samples a fixed calibration kernel — an
//! annealing-style loop over a 64×64 matrix in this crate's own code, so
//! no change to the program can change it — at most every
//! [`INTERVAL_NS`], between ops, on the cores the workload runs on. An
//! end-to-end time is reported at reference speed: each stretch of wall
//! time is scaled by `REF_KERNEL_NS / kernel time` measured around it,
//! and the kernel's own time is left out of every window. Raw wall
//! figures are printed as notes next to the reported ones.

use std::cell::RefCell;

use crate::trace::now_ns;

/// Kernel time (min of [`KERNEL_REPS`]) at the reference host's median
/// speed: a scaled time reads as wall time on that host.
pub const REF_KERNEL_NS: f64 = 200_000.0;

/// Least wall time between two samples of a timed window.
pub const INTERVAL_NS: u64 = 100_000_000;

/// Kernel runs per core per sample; the fastest counts (an interrupt
/// only ever slows a run down).
const KERNEL_REPS: usize = 3;

const N: usize = 64;
const SWEEPS: usize = 100;

/// The calibration kernel: annealing sweeps with xorshift proposals and
/// incremental field updates over a fixed pseudo-random matrix.
fn kernel(q: &[f64]) -> f64 {
    let mut x = [0u8; N];
    let mut field = [0.0f64; N];
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut energy = 0.0;
    for t in 0..SWEEPS {
        let temp = 1.0 + (SWEEPS - t) as f64 * 0.01;
        for i in 0..N {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let local = q[i * N + i] + field[i];
            let delta = if x[i] == 0 { local } else { -local };
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            if delta < 0.0 || u < (-delta / temp).exp() {
                let sign = if x[i] == 0 { 1.0 } else { -1.0 };
                x[i] ^= 1;
                energy += delta;
                for (f, w) in field.iter_mut().zip(&q[i * N..(i + 1) * N]) {
                    *f += sign * w;
                }
            }
        }
    }
    energy
}

fn matrix() -> Vec<f64> {
    let mut s: u64 = 12_345;
    (0..N * N)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Fastest of [`KERNEL_REPS`] kernel runs on the calling thread's core.
fn kernel_ns(q: &[f64]) -> u64 {
    (0..KERNEL_REPS)
        .map(|_| {
            let t0 = now_ns();
            std::hint::black_box(kernel(std::hint::black_box(q)));
            now_ns() - t0
        })
        .min()
        .expect("at least one kernel run")
}

/// One calibration sample: the wall interval it took and the kernel time.
#[derive(Debug, Clone, Copy)]
struct Sample {
    start: u64,
    end: u64,
    kernel_ns: f64,
}

/// The calibration samples of one thread's timed windows.
#[derive(Debug, Default, Clone)]
pub struct SpeedLog {
    samples: Vec<Sample>,
}

struct Calibrator {
    q: Vec<f64>,
    /// cores to sample, in order; the thread returns to the first
    cores: Vec<usize>,
    log: SpeedLog,
}

thread_local! {
    static CAL: RefCell<Option<Calibrator>> = const { RefCell::new(None) };
}

/// Pins the calling thread to `cores[0]` and starts a fresh log whose
/// samples time the kernel on each of `cores` in turn. With no core list
/// (a one-core host) the thread stays where it is.
pub fn start(cores: &[usize]) {
    if let Some(&first) = cores.first() {
        affinity::pin(first);
    }
    CAL.with(|c| {
        *c.borrow_mut() = Some(Calibrator {
            q: matrix(),
            cores: cores.to_vec(),
            log: SpeedLog::default(),
        })
    });
}

/// Takes one sample now.
pub fn sample() {
    CAL.with(|c| {
        let mut c = c.borrow_mut();
        let cal = c.as_mut().expect("host::start before host::sample");
        let start = now_ns();
        let kernel_ns = if cal.cores.len() > 1 {
            let mut sum = 0;
            for &core in &cal.cores {
                affinity::pin(core);
                sum += kernel_ns(&cal.q);
            }
            affinity::pin(cal.cores[0]);
            sum as f64 / cal.cores.len() as f64
        } else {
            kernel_ns(&cal.q) as f64
        };
        cal.log.samples.push(Sample {
            start,
            end: now_ns(),
            kernel_ns,
        });
    });
}

/// Whether a sample is due: calibration is on and the last sample ended
/// at least [`INTERVAL_NS`] ago (or there is none). Sample only between
/// ops.
pub fn due() -> bool {
    CAL.with(|c| {
        c.borrow().as_ref().is_some_and(|cal| {
            cal.log
                .samples
                .last()
                .is_none_or(|s| now_ns() - s.end >= INTERVAL_NS)
        })
    })
}

/// A copy of the calling thread's log so far.
pub fn log() -> SpeedLog {
    CAL.with(|c| c.borrow().as_ref().map(|cal| cal.log.clone()).unwrap_or_default())
}

/// Ends calibration and gives the calling thread back every allowed CPU.
pub fn stop(allowed: &[usize]) -> SpeedLog {
    if !allowed.is_empty() {
        affinity::set(allowed);
    }
    CAL.with(|c| c.borrow_mut().take().map(|cal| cal.log).unwrap_or_default())
}

impl SpeedLog {
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time, in µs.
    pub fn median_kernel_us(&self) -> f64 {
        let ks: Vec<f64> = self.samples.iter().map(|s| s.kernel_ns).collect();
        if ks.is_empty() {
            return f64::NAN;
        }
        crate::report::median(&ks) / 1e3
    }

    /// Kernel time around time `t`: the mean of the samples either side
    /// (the nearest one at either end of the log).
    fn kernel_at(&self, t: u64) -> f64 {
        let s = &self.samples;
        assert!(!s.is_empty(), "a timed window holds at least one calibration sample");
        let after = s.partition_point(|x| x.start <= t);
        match after {
            0 => s[0].kernel_ns,
            k if k == s.len() => s[k - 1].kernel_ns,
            k => (s[k - 1].kernel_ns + s[k].kernel_ns) / 2.0,
        }
    }

    /// Reference-speed factor at time `t`.
    pub fn factor_at(&self, t: u64) -> f64 {
        REF_KERNEL_NS / self.kernel_at(t)
    }

    /// Duration of an op that ran over `[start, end]`, at reference speed.
    pub fn scale_ns(&self, start: u64, end: u64) -> f64 {
        (end - start) as f64 * self.factor_at(start / 2 + end / 2)
    }

    /// Wall time in `[a, b]` outside calibration samples, each stretch
    /// between two samples at the speed they measured.
    pub fn window_ns(&self, a: u64, b: u64) -> f64 {
        // Stretch boundaries: a, then every sample's start and end inside
        // (a, b), then b. Stretches inside a sample are skipped.
        let mut total = 0.0;
        let mut from = a;
        for s in &self.samples {
            if s.end <= a || s.start >= b {
                continue;
            }
            if s.start > from {
                total += self.scale_ns(from, s.start);
            }
            from = s.end.max(from);
        }
        if b > from {
            total += self.scale_ns(from, b);
        }
        total
    }

    /// Wall time in `[a, b]` spent in calibration samples.
    pub fn calibration_ns(&self, a: u64, b: u64) -> u64 {
        self.samples
            .iter()
            .map(|s| s.end.min(b).saturating_sub(s.start.max(a)))
            .sum()
    }
}

/// CPU affinity of the calling thread (Linux).
pub mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    const WORDS: usize = 16;

    /// CPUs this thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread (and threads it spawns later) to
    /// `cpus`.
    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        assert_eq!(rc, 0, "pin thread to cpus {cpus:?}");
    }

    /// Restricts the calling thread (and threads it spawns later) to `cpu`.
    pub fn pin(cpu: usize) {
        set(&[cpu]);
    }
}
