//! Pieces every workload shares: the run context, the timed repeat
//! loop and its speed-scaled CPU clock, answer checks, and small
//! statistics.

use crate::trace::{layer_totals, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use vartol_stats::Moments;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    /// Threads the reference kernel runs on at once: as many as the
    /// workload keeps busy, so it samples the speed of the vCPUs the
    /// work ran on.
    pub ref_threads: usize,
}

/// CPU time of [`reference_kernel`] on the machine the benchmark's
/// times are scaled to, s: a little slower than the 2 GHz Xeon vCPU
/// the bounds were set on.
const REF_S: f64 = 0.1;

/// `cpu` seconds measured while the reference kernel took `ref_s`,
/// scaled to a machine on which it takes [`REF_S`].
fn scaled(cpu: f64, ref_s: f64) -> f64 {
    cpu * REF_S / ref_s
}

/// Metric name → value. Units live in [`crate::E2E`] / [`crate::LAYERS`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Metrics,
    pub layer: Metrics,
}

/// Answer checks and failed operations of one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts a failed answer check against an operation already counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Bit-for-bit equality of two moment pairs.
pub fn same_bits(a: Moments, b: Moments) -> bool {
    a.mean.to_bits() == b.mean.to_bits() && a.var.to_bits() == b.var.to_bits()
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of unsorted samples; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one measured stretch, s.
#[derive(Clone, Copy)]
struct Elapsed {
    wall: f64,
    cpu: f64,
}

/// Starts a wall clock and a CPU clock together.
struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    fn read(&self) -> Elapsed {
        Elapsed {
            wall: secs_since(self.wall),
            cpu: cpu_seconds() - self.cpu,
        }
    }
}

/// CPU time this process has used so far, all threads, s
/// (`CLOCK_PROCESS_CPUTIME_ID`). Linux built with paravirtualised time
/// accounting leaves out time the hypervisor gave to other guests
/// (steal), which wall time counts.
fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, s
/// (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    #[allow(clippy::cast_precision_loss)]
    {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    }
}

/// A fixed calibration kernel in the shape of statistical timing:
/// Clark's max of two normal arrivals per node over a seeded random
/// DAG of 2^16 nodes (2 MiB), fanins within 1024 earlier nodes. It is
/// the benchmark's own code, so no change to the program moves it; only
/// the machine's speed does. Returns the CPU time of the sweeps on the
/// calling thread, s (about 0.08 s on a 2 GHz Xeon vCPU), so threads
/// idling elsewhere in the process, such as a server's, do not count.
fn reference_kernel() -> f64 {
    const NODES: usize = 1 << 16;
    const WINDOW: usize = 1024;
    const SWEEPS: usize = 32;
    let mut rng = Rng::new(0x5eed);
    let fanins: Vec<[u32; 2]> = (0..NODES)
        .map(|i| {
            let pick = |rng: &mut Rng| (i - 1 - rng.below(WINDOW)) as u32;
            if i < WINDOW {
                [0, 0]
            } else {
                [pick(&mut rng), pick(&mut rng)]
            }
        })
        .collect();
    // Written in full before the clock starts, so no page is first
    // touched inside the timed sweeps.
    let mut mean = vec![0.5f64; NODES];
    let mut var = vec![1.0f64; NODES];
    let start = thread_cpu_seconds();
    for _ in 0..SWEEPS {
        for i in WINDOW..NODES {
            let [a, b] = fanins[i].map(|f| f as usize);
            let (m, v) = clark_max(mean[a], var[a], mean[b], var[b]);
            #[allow(clippy::cast_precision_loss)]
            let delay = 1.0 + (i % 13) as f64 * 0.1;
            mean[i] = m + delay;
            var[i] = v + 0.01 * delay;
        }
    }
    std::hint::black_box((&mean, &var));
    thread_cpu_seconds() - start
}

/// The reference time after a job of `cpu` seconds: the median of as
/// many kernel runs as fill a tenth of the job (at least one), so a
/// long job is scaled by a steadier figure at the same relative cost.
fn reference_after(threads: usize, cpu: f64) -> f64 {
    let mut runs = vec![reference(threads)];
    while runs.iter().sum::<f64>() < 0.1 * cpu {
        runs.push(reference(threads));
    }
    median(&runs)
}

/// The mean time of the reference kernel run on `threads` threads at
/// once (at least the calling one).
fn reference(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(reference_kernel)).collect();
        let here = reference_kernel();
        let others: Vec<f64> = others
            .into_iter()
            .map(|h| h.join().expect("reference kernel thread"))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        {
            (here + others.iter().sum::<f64>()) / (1 + others.len()) as f64
        }
    })
}

/// Clark's moments of the max of two independent normals.
fn clark_max(m1: f64, v1: f64, m2: f64, v2: f64) -> (f64, f64) {
    let a = (v1 + v2).sqrt();
    let alpha = (m1 - m2) / a;
    let pdf = (-0.5 * alpha * alpha).exp() * 0.398_942_280_401_432_7;
    let cdf = 0.5 * (1.0 + erf(alpha * std::f64::consts::FRAC_1_SQRT_2));
    let mean = m1 * cdf + m2 * (1.0 - cdf) + a * pdf;
    let second = (m1 * m1 + v1) * cdf + (m2 * m2 + v2) * (1.0 - cdf) + (m1 + m2) * a * pdf;
    (mean, (second - mean * mean).max(0.0))
}

/// Abramowitz and Stegun 7.1.26.
fn erf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    (1.0 - poly * (-x * x).exp()).copysign(x)
}

/// Runs `setup` as `jobs` jobs of its own [`Meter`], each repeating it
/// until it has taken [`SETUP_JOB_S`] of CPU (at least once), and
/// returns the last result with the median over jobs of the scaled CPU
/// time of one set-up. A set-up can take a few milliseconds, far less
/// than the reference kernel, and timed one by one such short jobs
/// drifted by a fifth between sets of runs. Earlier results are dropped
/// inside the job, so one is alive at a time.
pub fn repeated_setup<T>(ctx: &Ctx, jobs: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut meter = Meter::start(ctx.ref_threads);
    let mut counts = Vec::with_capacity(jobs);
    let mut last = None;
    for _ in 0..jobs.max(1) {
        let count = meter.job(|| {
            let start = cpu_seconds();
            let mut count = 0u32;
            while count == 0 || cpu_seconds() - start < SETUP_JOB_S {
                last = Some(setup());
                count += 1;
            }
            count
        });
        counts.push(f64::from(count));
    }
    meter.settle();
    let per_setup: Vec<f64> = meter
        .scaled_jobs
        .iter()
        .zip(&counts)
        .map(|(job, count)| job / count)
        .collect();
    (last.expect("at least one set-up"), median(&per_setup))
}

/// CPU time a set-up job repeats its set-up for, s.
const SETUP_JOB_S: f64 = 0.1;

/// Measures work job by job. Each job's CPU time is scaled by the mean
/// of the reference kernel's times just before and just after it, so it
/// is scaled by the machine's speed around it: on a shared host that
/// speed drifts by tens of percent within a minute, and scaling pass by
/// pass tracks it less closely than job by job. The reference after a
/// job runs when the next job starts or the meter settles, so outside
/// any span the job opens.
pub struct Meter {
    threads: usize,
    last_ref: f64,
    pending: Option<Elapsed>,
    sample: Sample,
    scaled_jobs: Vec<f64>,
    refs: Vec<f64>,
}

/// What one pass measured over its jobs.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    /// Raw wall time, s.
    pub wall: f64,
    /// Raw CPU time, s.
    pub cpu: f64,
    /// CPU time scaled job by job to the reference machine, s.
    pub scaled: f64,
    /// Jobs timed.
    pub jobs: usize,
}

impl Meter {
    /// A meter that runs the reference kernel on `threads` threads, and
    /// runs it once before its first job.
    pub fn start(threads: usize) -> Self {
        Self::after(threads, reference(threads))
    }

    /// A meter whose first job is scaled from `last_ref`, the reference
    /// time just before it.
    fn after(threads: usize, last_ref: f64) -> Self {
        Self {
            threads,
            last_ref,
            pending: None,
            sample: Sample::default(),
            scaled_jobs: Vec::new(),
            refs: Vec::new(),
        }
    }

    /// Runs one job and times it.
    pub fn job<T>(&mut self, work: impl FnOnce() -> T) -> T {
        self.settle();
        let clock = Stopwatch::start();
        let out = work();
        self.pending = Some(clock.read());
        out
    }

    /// The median scaled CPU time of the jobs, s.
    pub fn median_job(mut self) -> f64 {
        self.settle();
        median(&self.scaled_jobs)
    }

    /// Runs the reference kernel after the last job, if it has not run.
    fn settle(&mut self) {
        let Some(time) = self.pending.take() else {
            return;
        };
        let after = reference_after(self.threads, time.cpu);
        let job = scaled(time.cpu, (self.last_ref + after) / 2.0);
        self.refs.push(after);
        self.scaled_jobs.push(job);
        let s = &mut self.sample;
        s.wall += time.wall;
        s.cpu += time.cpu;
        s.scaled += job;
        s.jobs += 1;
        self.last_ref = after;
    }
}

/// Passes of the timed loop, split by tracing state, the reference
/// kernel's times, and the peak heap and resident set through the
/// first pass.
pub struct Timings {
    pub untraced: Vec<Sample>,
    pub traced: Vec<Sample>,
    pub traced_runs: Vec<u64>,
    pub refs: Vec<f64>,
    pub peak_heap_mb: f64,
    pub peak_rss_mb: f64,
}

/// Runs the workload body: at least once (twice when traced: one
/// untraced and one traced pass), then again until `ctx.seconds` have
/// passed. A traced run alternates untraced and traced passes so the
/// two can be compared. The body times its work through the [`Meter`];
/// a pass whose body timed no job (it failed) is not counted.
pub fn timed_loop(ctx: &Ctx, mut body: impl FnMut(usize, &mut Meter)) -> Timings {
    let min_iters = if ctx.traced { 2 } else { 1 };
    let mut t = Timings {
        untraced: Vec::new(),
        traced: Vec::new(),
        traced_runs: Vec::new(),
        refs: Vec::new(),
        peak_heap_mb: 0.0,
        peak_rss_mb: 0.0,
    };
    let loop_start = Instant::now();
    let mut last_ref = reference(ctx.ref_threads);
    let mut i = 0;
    loop {
        let traced = ctx.traced && i % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let run = ctx.tracer.begin_run();
        let mut meter = Meter::after(ctx.ref_threads, last_ref);
        body(i, &mut meter);
        ctx.tracer.set_enabled(false);
        meter.settle();
        last_ref = meter.last_ref;
        t.refs.extend(&meter.refs);
        let sample = meter.sample;
        // Read after a fixed amount of work (set-up and one pass), so
        // the figures do not grow with the number of passes a machine
        // fits in the run: allocator arenas keep some memory each pass.
        if i == 0 {
            t.peak_heap_mb = crate::heap::peak_mb();
            t.peak_rss_mb = peak_rss_mb();
        }
        println!(
            "# pass {i}: traced {traced}, {} jobs, wall {:.4} s, cpu {:.4} s, scaled cpu {:.4} s",
            sample.jobs, sample.wall, sample.cpu, sample.scaled
        );
        if sample.jobs > 0 {
            if traced {
                t.traced.push(sample);
                t.traced_runs.push(run);
            } else {
                t.untraced.push(sample);
            }
        }
        i += 1;
        if i >= min_iters && secs_since(loop_start) >= ctx.seconds {
            break;
        }
    }
    t
}

impl Timings {
    /// `cpu_s` (untraced median of scaled CPU time) and `peak_heap_mb`
    /// into `e2e`; in a traced run, the untraced passes' median raw wall
    /// time, the reference kernel's median time, the peak resident set,
    /// every span's median total time into `layer` as `<span>_s`, and
    /// the tracing overhead.
    pub fn report(&self, ctx: &Ctx, out: &mut Outcome) {
        let median_of =
            |v: &[Sample], f: fn(&Sample) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
        let cpu = median_of(&self.untraced, |s| s.scaled);
        out.e2e.insert("cpu_s", cpu);
        out.e2e.insert("peak_heap_mb", self.peak_heap_mb);
        if !ctx.traced {
            return;
        }
        out.layer
            .insert("host.wall_s", median_of(&self.untraced, |s| s.wall));
        out.layer.insert("host.ref_s", median(&self.refs));
        out.layer.insert("host.peak_rss_mb", self.peak_rss_mb);
        out.layer.insert(
            "trace.overhead_pct",
            (median_of(&self.traced, |s| s.scaled) / cpu - 1.0) * 100.0,
        );
        span_medians(ctx, &self.traced_runs, &mut out.layer);
    }
}

/// For each span name seen in `runs`, the median over those runs of the
/// name's total span time, inserted as `<name>_s` when it names a
/// declared layer metric.
pub fn span_medians(ctx: &Ctx, runs: &[u64], layer: &mut Metrics) {
    let spans = ctx.tracer.spans();
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &run in runs {
        for (name, (_, total, _)) in layer_totals(&spans, run) {
            per_name.entry(name).or_default().push(total);
        }
    }
    for (name, totals) in per_name {
        if let Some((metric, _)) = crate::LAYERS
            .iter()
            .find(|(m, _)| m.strip_suffix("_s") == Some(name))
        {
            layer.insert(metric, median(&totals));
        }
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.next_u64() % n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
    }

    #[test]
    fn failed_checks_count_against_the_run() {
        let mut c = Checks::default();
        c.op(true, String::new);
        c.op(false, || "op".into());
        c.check(false, || "answer".into());
        assert_eq!((c.attempted, c.failed), (2, 2));
    }
}
