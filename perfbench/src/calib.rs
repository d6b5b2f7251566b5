//! Host-speed calibration.
//!
//! A shared VM's host moves: on a 2-vCPU Intel Xeon VM, within an hour the
//! same `batch` code ran at 0.37 and at 0.76 ops/s, and a fixed loop of the
//! benchmark's own slowed in step. So between ops, with no request in
//! flight and the program idle, a timed region times that loop — a pointer
//! chase over an 8 MB random cycle plus a sort, the memory-latency and
//! branch mix of the program's own work — at most once per [`PERIOD`]. The
//! host factor is the median loop time over [`REFERENCE_MS`]; `main`
//! divides end-to-end times by it (and wall times also by one minus the
//! host's steal share, which the median leaves out) and multiplies rates by
//! it. Set-up repeats are normalized the same way by a burst of the loop
//! taken just after each of them ([`SetupTimes`]). The loop is the
//! benchmark's own code: a change to the program reaches it only through
//! what the program leaves in the caches, so such a change moves the
//! normalized numbers nearly in full.

use std::time::{Duration, Instant};

use crate::host::{self, CpuWindow};
use crate::stats::median;

/// The loop's time on a quiet host: the 2-vCPU Intel Xeon VM the bounds in
/// `BENCHMARK.json` were measured on.
pub const REFERENCE_MS: f64 = 2.5;
/// The shortest gap between two samples.
const PERIOD: Duration = Duration::from_millis(250);
const TABLE_LEN: usize = 1 << 21;
const CHASE_STEPS: usize = 12_000;
const SORT_LEN: u64 = 4_000;
/// Loop runs in the burst taken after each set-up repeat.
const BURST: usize = 8;

/// The loop's table and the samples taken so far.
pub struct Calibration {
    table: Vec<u32>,
    samples: Vec<f64>,
    last: Option<Instant>,
    /// Where the next burst run's chase starts.
    burst_slot: u32,
}

impl Calibration {
    /// Builds the table: a random single cycle over its slots (Sattolo's
    /// shuffle), so the chase visits every slot in an order the prefetcher
    /// cannot follow.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..TABLE_LEN).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            table.swap(i, (state % i as u64) as usize);
        }
        Self {
            table,
            samples: Vec::new(),
            last: None,
            burst_slot: 0,
        }
    }

    /// The loop, chasing from `slot`; returns a checksum and the slot the
    /// chase ended on.
    fn kernel(&self, mut slot: u32) -> (u64, u32) {
        let mut acc = 0u64;
        for _ in 0..CHASE_STEPS {
            slot = self.table[slot as usize];
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(slot));
        }
        let mut values: Vec<u64> = (0..SORT_LEN)
            .map(|x| (x ^ acc).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 11)
            .collect();
        values.sort_unstable();
        (acc ^ values[values.len() / 2], slot)
    }

    /// Whether [`PERIOD`] has passed since the last sample.
    pub fn due(&self) -> bool {
        self.last.is_none_or(|last| last.elapsed() >= PERIOD)
    }

    fn time_kernel(&self, slot: u32) -> (Duration, u32) {
        let start = Instant::now();
        let (checksum, end) = self.kernel(slot);
        let took = start.elapsed();
        std::hint::black_box(checksum);
        (took, end)
    }

    /// Times the loop once. Call only between ops.
    pub fn sample(&mut self) {
        let (took, _) = self.time_kernel(0);
        self.samples.push(took.as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// [`BURST`] loop times in milliseconds, back to back, kept apart from
    /// the timed region's samples. A timed-region sample follows 250 ms of
    /// the program's work, which evicts the lines the previous sample
    /// chased from the core's cache; back-to-back runs over the same lines
    /// would hit it. So each run of a burst chases on from where the last
    /// one ended, over lines no recent run touched.
    fn burst(&mut self) -> Vec<f64> {
        (0..BURST)
            .map(|_| {
                let (took, end) = self.time_kernel(self.burst_slot);
                self.burst_slot = end;
                took.as_secs_f64() * 1e3
            })
            .collect()
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than [`REFERENCE_MS`] the host ran the loop; 1
    /// without samples.
    pub fn host_factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / REFERENCE_MS
        }
    }
}

/// A timed region's clocks and resident set. Calibration samples taken
/// between ops are left out of its wall and CPU clocks; a client's pause
/// between ops is left out of its wall clock only, since the program's
/// background work during the pause is still the program's.
///
/// Each calibration sample also closes a window of ops and reads the
/// window's peak resident set. The peak of a whole run is the largest of
/// many ops' peaks, and in ten `batch` runs it ranged 185–228 MB; the
/// median window peak is the peak of a typical op.
pub struct Region {
    start: Instant,
    cpu_start: f64,
    paused: Duration,
    paused_cpu: f64,
    /// Peak resident set, in MB, of each closed window.
    window_peaks: Vec<f64>,
    window_open: bool,
}

impl Region {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            cpu_start: host::process_cpu_s(),
            paused: Duration::ZERO,
            paused_cpu: 0.0,
            window_peaks: Vec::new(),
            window_open: false,
        }
    }

    /// Closes the open window, if any, and opens the next.
    fn next_window(&mut self) {
        if self.window_open {
            self.window_peaks.push(host::peak_rss_mb());
        }
        host::reset_peak_rss();
        self.window_open = true;
    }

    /// `peak_rss_mb`: the median over the region's windows of each window's
    /// peak resident set. Call after the last op.
    pub fn peak_rss_mb(&mut self) -> f64 {
        self.next_window();
        median(&self.window_peaks)
    }

    /// Wall time since the start, less the pauses.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    /// Process CPU seconds since the start, less the calibration samples'.
    pub fn cpu_s(&self) -> f64 {
        host::process_cpu_s() - self.cpu_start - self.paused_cpu
    }

    /// Takes a calibration sample and starts a new window if one is due.
    /// Call only between ops.
    pub fn calibrate(&mut self, calibration: &mut Calibration) {
        if calibration.due() {
            let (start, cpu) = (Instant::now(), host::process_cpu_s());
            self.next_window();
            calibration.sample();
            self.paused += start.elapsed();
            self.paused_cpu += host::process_cpu_s() - cpu;
        }
    }

    /// Sleeps for `pause` between ops.
    pub fn think(&mut self, pause: Duration) {
        let start = Instant::now();
        std::thread::sleep(pause);
        self.paused += start.elapsed();
    }
}

/// A run's set-up repeats, raw and host-normalized. Each repeat's time is
/// divided by the host's slowdown while it ran: the median of the loop
/// burst taken just after it, over [`REFERENCE_MS`], over one minus the
/// host's steal share during the repeat.
#[derive(Debug, Default)]
pub struct SetupTimes {
    raw: Vec<f64>,
    normalized: Vec<f64>,
}

impl SetupTimes {
    /// Runs one set-up repeat; `setup` returns its state and the seconds it
    /// took.
    pub fn time<T>(
        &mut self,
        calibration: &mut Calibration,
        setup: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Result<T, String> {
        let window = CpuWindow::start();
        let (state, seconds) = setup()?;
        let steal = window.finish().steal_pct / 100.0;
        let slowdown = median(&calibration.burst()) / REFERENCE_MS / (1.0 - steal);
        self.raw.push(seconds);
        self.normalized.push(seconds / slowdown);
        Ok(state)
    }

    /// Median raw seconds of the repeats.
    pub fn raw_s(&self) -> f64 {
        median(&self.raw)
    }

    /// Median host-normalized seconds of the repeats: `setup_s`.
    pub fn normalized_s(&self) -> f64 {
        median(&self.normalized)
    }
}
