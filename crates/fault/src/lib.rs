//! Named failpoints for fault injection, plus the retry/backoff primitives
//! the recovery paths built on top of them share.
//!
//! A *failpoint* is a named hook compiled permanently into a production code
//! path — `wiki_fault::check_io("snapshot.save.write")?` — that normally does
//! nothing and can be armed at runtime to misbehave on purpose: return an
//! injected I/O error, sleep for a configured delay, truncate a write after
//! N bytes (a torn write), or abort the process outright. Tests and the
//! chaos harness arm points to prove that recovery code actually recovers;
//! production traffic never notices they exist.
//!
//! # Cost when disarmed
//!
//! The entire framework hides behind one process-wide armed-point counter.
//! When nothing is armed, every hook is a single `Relaxed` atomic load and a
//! predictable branch — no locks, no string hashing, no allocation.
//! `BENCH_10.json` records a disarmed hook at 1.5 ns and no measurable
//! cost on a warm align p50.
//!
//! # Arming
//!
//! Points are armed from a spec string, either at process start through the
//! `WIKIMATCH_FAILPOINTS` environment variable or at runtime through
//! [`arm`] (matchd exposes the latter behind the test-only
//! `--enable-failpoints` endpoint):
//!
//! ```text
//! WIKIMATCH_FAILPOINTS="journal.append.write=torn(12)*1;registry.spill=sleep(50)"
//! ```
//!
//! Each `;`-separated entry is `name=action[*TIMES][/EVERY]`:
//!
//! | action       | meaning                                                  |
//! |--------------|----------------------------------------------------------|
//! | `err`        | return an injected [`io::Error`]                         |
//! | `err(msg)`   | same, with `msg` embedded in the error text              |
//! | `sleep(ms)`  | sleep `ms` milliseconds, then continue normally          |
//! | `torn(n)`    | write/keep only the first `n` bytes, then fail           |
//! | `abort`      | `process::abort()` at the hook                           |
//! | `abort(n)`   | write the first `n` bytes, then `process::abort()`       |
//! | `off`        | disarm the point                                         |
//!
//! `*TIMES` fires the action at most `TIMES` times then self-disarms (the
//! common chaos shape: `abort(12)*1` — die exactly once, mid-record).
//! `/EVERY` fires on every `EVERY`-th hit deterministically (hits 1..E-1
//! pass through, hit E fires, and so on), so a bench can stall every tenth
//! spill without randomness.
//!
//! Injected errors carry [`INJECTED_MARKER`] in their message so tests can
//! tell a planted failure from a real one.

pub mod backoff;

pub use backoff::{seed_from_name, Backoff};

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// Substring present in every injected error's `Display` output.
pub const INJECTED_MARKER: &str = "failpoint";

/// Environment variable read once (on the first hook evaluation or explicit
/// [`init_env`] call) for boot-time arming.
pub const ENV_VAR: &str = "WIKIMATCH_FAILPOINTS";

/// Sentinel for "the environment has not been consulted yet". The first
/// hook that observes it takes the slow path, parses [`ENV_VAR`] and
/// replaces the sentinel with the real armed-point count.
const UNINIT: usize = usize::MAX;

/// Number of currently armed points, or [`UNINIT`]. The fast path is a
/// single `Relaxed` load of this counter: `0` means every hook is inert.
static ARMED: AtomicUsize = AtomicUsize::new(UNINIT);

static INIT: Once = Once::new();

/// What an armed point does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Return an injected `io::Error` carrying the message.
    Err(String),
    /// Sleep for the given number of milliseconds, then continue.
    Sleep(u64),
    /// Keep/write only the first `n` bytes, then fail with an injected
    /// error (a torn write, or a truncated read on load paths).
    Torn(usize),
    /// Write the first `n` bytes, then `process::abort()`.
    Abort(usize),
}

impl Action {
    fn describe(&self) -> String {
        match self {
            Action::Err(msg) => format!("err({msg})"),
            Action::Sleep(ms) => format!("sleep({ms})"),
            Action::Torn(n) => format!("torn({n})"),
            Action::Abort(n) => format!("abort({n})"),
        }
    }
}

/// One armed point. Mutated only under the table lock; the per-hit
/// bookkeeping (`hits`, `fired`, remaining `times`) lives behind it too —
/// armed mode is a test/chaos mode, so slow-path contention is acceptable.
#[derive(Debug)]
struct PointState {
    name: String,
    action: Action,
    /// Fire on every `every`-th hit (1 = every hit).
    every: u64,
    /// Remaining firings before self-disarm; `None` = unlimited.
    times: Option<u64>,
    hits: u64,
    fired: u64,
}

/// Public snapshot of one armed point, for `GET /failpoints` and logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointStatus {
    /// Failpoint name, e.g. `journal.append.write`.
    pub name: String,
    /// Re-parseable spec of the armed action, e.g. `torn(12)*1`.
    pub spec: String,
    /// Hook evaluations observed while armed.
    pub hits: u64,
    /// Times the action actually fired.
    pub fired: u64,
}

fn table() -> &'static Mutex<Vec<PointState>> {
    static TABLE: OnceLock<Mutex<Vec<PointState>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_table() -> std::sync::MutexGuard<'static, Vec<PointState>> {
    // A panic while holding the table lock (e.g. a test assertion inside an
    // armed section) must not wedge every later hook.
    table()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parse and arm the [`ENV_VAR`] spec if it has not been consulted yet.
/// Idempotent and cheap after the first call; hooks call it implicitly.
pub fn init_env() {
    INIT.call_once(|| {
        let mut armed = 0usize;
        if let Ok(spec) = std::env::var(ENV_VAR) {
            if !spec.trim().is_empty() {
                match parse_spec(&spec) {
                    Ok(entries) => {
                        let mut tbl = lock_table();
                        for entry in entries {
                            apply_entry(&mut tbl, entry);
                        }
                        armed = tbl.len();
                    }
                    Err(err) => {
                        eprintln!("wiki-fault: ignoring malformed {ENV_VAR}: {err}");
                    }
                }
            }
        }
        // Publish the real count, ending the UNINIT slow path. `arm` may
        // have run before us and already replaced the sentinel; only
        // install our count if the sentinel is still in place.
        let _ = ARMED.compare_exchange(UNINIT, armed, Ordering::SeqCst, Ordering::SeqCst);
    });
}

/// One parsed `name=action[*T][/E]` entry. `None` action means `off`.
struct SpecEntry {
    name: String,
    action: Option<Action>,
    every: u64,
    times: Option<u64>,
}

fn parse_spec(spec: &str) -> Result<Vec<SpecEntry>, String> {
    let mut entries = Vec::new();
    for raw in spec.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (name, rhs) = raw
            .split_once('=')
            .ok_or_else(|| format!("entry `{raw}` is missing `=`"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("entry `{raw}` has an empty point name"));
        }
        let mut rhs = rhs.trim();

        // Strip modifiers from the right: [/EVERY] then [*TIMES]. They may
        // appear in either order; parse both.
        let mut every = 1u64;
        let mut times = None;
        loop {
            if let Some(idx) = rhs.rfind(['*', '/']) {
                // Only treat it as a modifier if it sits after the action's
                // closing parenthesis (or there are no parentheses at all).
                let after_parens = match rhs.rfind(')') {
                    Some(p) => idx > p,
                    None => true,
                };
                if after_parens {
                    let (head, tail) = rhs.split_at(idx);
                    let value: u64 = tail[1..]
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad modifier `{tail}` in `{raw}`"))?;
                    if value == 0 {
                        return Err(format!("modifier in `{raw}` must be >= 1"));
                    }
                    match tail.as_bytes()[0] {
                        b'*' => times = Some(value),
                        _ => every = value,
                    }
                    rhs = head.trim_end();
                    continue;
                }
            }
            break;
        }

        let action = parse_action(rhs).map_err(|e| format!("in `{raw}`: {e}"))?;
        entries.push(SpecEntry {
            name: name.to_string(),
            action,
            every,
            times,
        });
    }
    Ok(entries)
}

fn parse_action(text: &str) -> Result<Option<Action>, String> {
    let (head, arg) = match text.split_once('(') {
        Some((head, rest)) => {
            let arg = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("unclosed parenthesis in `{text}`"))?;
            (head.trim(), Some(arg.trim()))
        }
        None => (text.trim(), None),
    };
    let numeric = |what: &str, arg: Option<&str>| -> Result<u64, String> {
        arg.ok_or_else(|| format!("`{what}` needs a numeric argument"))?
            .parse::<u64>()
            .map_err(|_| format!("`{what}` argument must be a non-negative integer"))
    };
    match head {
        "off" => Ok(None),
        "err" => Ok(Some(Action::Err(
            arg.filter(|a| !a.is_empty())
                .unwrap_or("injected error")
                .to_string(),
        ))),
        "sleep" => Ok(Some(Action::Sleep(numeric("sleep", arg)?))),
        "torn" => Ok(Some(Action::Torn(numeric("torn", arg)? as usize))),
        "abort" => Ok(Some(Action::Abort(match arg {
            Some(a) if !a.is_empty() => numeric("abort", Some(a))? as usize,
            _ => 0,
        }))),
        other => Err(format!("unknown action `{other}`")),
    }
}

fn apply_entry(tbl: &mut Vec<PointState>, entry: SpecEntry) {
    tbl.retain(|p| p.name != entry.name);
    if let Some(action) = entry.action {
        tbl.push(PointState {
            name: entry.name,
            action,
            every: entry.every,
            times: entry.times,
            hits: 0,
            fired: 0,
        });
    }
}

fn publish_count(count: usize) {
    // After init_env the sentinel is gone; before it, installing a real
    // count is also correct (init_env's compare_exchange will then no-op).
    ARMED.store(count, Ordering::SeqCst);
    INIT.call_once(|| {});
}

/// Arm (or disarm, via `off`) points from a spec string. Returns the names
/// touched, or a parse error without changing anything.
pub fn arm(spec: &str) -> Result<Vec<String>, String> {
    init_env();
    let entries = parse_spec(spec)?;
    let mut names = Vec::with_capacity(entries.len());
    let mut tbl = lock_table();
    for entry in entries {
        names.push(entry.name.clone());
        apply_entry(&mut tbl, entry);
    }
    publish_count(tbl.len());
    Ok(names)
}

/// Disarm one point. Returns whether it was armed.
pub fn disarm(name: &str) -> bool {
    init_env();
    let mut tbl = lock_table();
    let before = tbl.len();
    tbl.retain(|p| p.name != name);
    let removed = tbl.len() != before;
    publish_count(tbl.len());
    removed
}

/// Disarm every point.
pub fn disarm_all() {
    init_env();
    let mut tbl = lock_table();
    tbl.clear();
    publish_count(0);
}

/// Snapshot of every armed point (hit/fire counters included).
pub fn list() -> Vec<PointStatus> {
    init_env();
    let tbl = lock_table();
    tbl.iter()
        .map(|p| {
            let mut spec = p.action.describe();
            if let Some(t) = p.times {
                spec.push_str(&format!("*{t}"));
            }
            if p.every > 1 {
                spec.push_str(&format!("/{}", p.every));
            }
            PointStatus {
                name: p.name.clone(),
                spec,
                hits: p.hits,
                fired: p.fired,
            }
        })
        .collect()
}

/// Evaluate a hook: `None` (the overwhelmingly common case) means proceed
/// normally; `Some(action)` means the caller must apply the action.
///
/// Side effects (sleeping, aborting) are deliberately *not* performed here
/// so the table lock is never held across them — the helper functions
/// ([`check_io`], [`write_all`], [`filter_read`], [`pause`]) apply them.
#[inline]
pub fn evaluate(name: &str) -> Option<Action> {
    match ARMED.load(Ordering::Relaxed) {
        0 => None,
        _ => evaluate_slow(name),
    }
}

#[cold]
fn evaluate_slow(name: &str) -> Option<Action> {
    init_env();
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut tbl = lock_table();
    let idx = tbl.iter().position(|p| p.name == name)?;
    let point = &mut tbl[idx];
    point.hits += 1;
    if !point.hits.is_multiple_of(point.every) {
        return None;
    }
    if let Some(times) = point.times {
        if times == 0 {
            return None;
        }
    }
    point.fired += 1;
    let action = point.action.clone();
    let exhausted = match point.times.as_mut() {
        Some(times) => {
            *times -= 1;
            *times == 0
        }
        None => false,
    };
    if exhausted {
        tbl.remove(idx);
        let count = tbl.len();
        drop(tbl);
        publish_count(count);
    }
    Some(action)
}

/// Build the injected error for a fired point.
pub fn injected_error(name: &str, detail: &str) -> io::Error {
    io::Error::other(format!("injected {INJECTED_MARKER} `{name}`: {detail}"))
}

/// Returns true if the error (anywhere in its message) came from a
/// failpoint rather than the real world.
pub fn is_injected(err: &io::Error) -> bool {
    err.to_string().contains(INJECTED_MARKER)
}

/// Hook for fallible I/O paths: `wiki_fault::check_io("point")?`.
///
/// `Sleep` delays then succeeds; `Err` and `Torn` return an injected error;
/// `Abort` kills the process.
#[inline]
pub fn check_io(name: &str) -> io::Result<()> {
    match evaluate(name) {
        None => Ok(()),
        Some(action) => apply_check(name, action),
    }
}

#[cold]
fn apply_check(name: &str, action: Action) -> io::Result<()> {
    match action {
        Action::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Action::Err(msg) => Err(injected_error(name, &msg)),
        Action::Torn(n) => Err(injected_error(name, &format!("torn after {n} bytes"))),
        Action::Abort(_) => std::process::abort(),
    }
}

/// Hook for infallible paths (pure compute, encode): `Sleep` and `Abort`
/// apply; error-shaped actions are ignored because there is nothing to fail.
#[inline]
pub fn pause(name: &str) {
    if let Some(action) = evaluate(name) {
        match action {
            Action::Sleep(ms) => std::thread::sleep(Duration::from_millis(ms)),
            Action::Abort(_) => std::process::abort(),
            Action::Err(_) | Action::Torn(_) => {}
        }
    }
}

/// Failpoint-aware `write_all`: the workhorse of the durability paths.
///
/// Disarmed, this is `w.write_all(bytes)`. Armed: `torn(n)` writes the
/// first `n` bytes then returns an injected error (the on-disk artifact is
/// genuinely torn); `abort(n)` writes `n` bytes, flushes, and aborts (a
/// crash mid-write); `err` fails before writing anything; `sleep` stalls
/// then writes normally.
#[inline]
pub fn write_all<W: Write>(name: &str, w: &mut W, bytes: &[u8]) -> io::Result<()> {
    match evaluate(name) {
        None => w.write_all(bytes),
        Some(action) => apply_write(name, w, bytes, action),
    }
}

#[cold]
fn apply_write<W: Write>(name: &str, w: &mut W, bytes: &[u8], action: Action) -> io::Result<()> {
    match action {
        Action::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            w.write_all(bytes)
        }
        Action::Err(msg) => Err(injected_error(name, &msg)),
        Action::Torn(n) => {
            let n = n.min(bytes.len());
            w.write_all(&bytes[..n])?;
            let _ = w.flush();
            Err(injected_error(name, &format!("torn write after {n} bytes")))
        }
        Action::Abort(n) => {
            let n = n.min(bytes.len());
            let _ = w.write_all(&bytes[..n]);
            let _ = w.flush();
            std::process::abort();
        }
    }
}

/// Failpoint-aware read filter for load paths: call after reading a file
/// into `bytes`. `torn(n)` truncates the buffer to `n` bytes (the caller
/// then sees exactly what a torn file looks like); `err` replaces the read
/// with an injected error; `sleep` stalls; `abort` aborts.
#[inline]
pub fn filter_read(name: &str, bytes: &mut Vec<u8>) -> io::Result<()> {
    match evaluate(name) {
        None => Ok(()),
        Some(action) => apply_read(name, bytes, action),
    }
}

#[cold]
fn apply_read(name: &str, bytes: &mut Vec<u8>, action: Action) -> io::Result<()> {
    match action {
        Action::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Action::Err(msg) => Err(injected_error(name, &msg)),
        Action::Torn(n) => {
            bytes.truncate(n);
            Ok(())
        }
        Action::Abort(_) => std::process::abort(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global table is process-wide; tests that arm points must not
    /// interleave. One mutex serialises them (and recovers from panics).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_points_do_nothing() {
        let _g = serial();
        disarm_all();
        assert!(evaluate("never.armed").is_none());
        assert!(check_io("never.armed").is_ok());
        let mut buf = Vec::new();
        write_all("never.armed", &mut buf, b"abc").unwrap();
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn err_action_injects_and_marks() {
        let _g = serial();
        disarm_all();
        arm("p.err=err(disk on fire)").unwrap();
        let err = check_io("p.err").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(err.to_string().contains("disk on fire"));
        disarm_all();
        assert!(check_io("p.err").is_ok());
    }

    #[test]
    fn torn_write_keeps_prefix_then_fails() {
        let _g = serial();
        disarm_all();
        arm("p.torn=torn(3)").unwrap();
        let mut buf = Vec::new();
        let err = write_all("p.torn", &mut buf, b"abcdef").unwrap_err();
        assert!(is_injected(&err));
        assert_eq!(buf, b"abc");
        disarm_all();
    }

    #[test]
    fn torn_read_truncates_buffer() {
        let _g = serial();
        disarm_all();
        arm("p.read=torn(2)").unwrap();
        let mut bytes = b"abcdef".to_vec();
        filter_read("p.read", &mut bytes).unwrap();
        assert_eq!(bytes, b"ab");
        disarm_all();
    }

    #[test]
    fn times_modifier_self_disarms() {
        let _g = serial();
        disarm_all();
        arm("p.once=err*1").unwrap();
        assert!(check_io("p.once").is_err());
        assert!(check_io("p.once").is_ok(), "second hit must pass");
        assert!(list().iter().all(|p| p.name != "p.once"), "self-disarmed");
        disarm_all();
    }

    #[test]
    fn every_modifier_fires_deterministically() {
        let _g = serial();
        disarm_all();
        arm("p.every=err/3").unwrap();
        let fired: Vec<bool> = (0..9).map(|_| check_io("p.every").is_err()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        disarm_all();
    }

    #[test]
    fn combined_modifiers_parse() {
        let _g = serial();
        disarm_all();
        arm("p.combo=torn(12)*2/2").unwrap();
        let status = list();
        let p = status.iter().find(|p| p.name == "p.combo").unwrap();
        assert_eq!(p.spec, "torn(12)*2/2");
        // Hits 1 passes, 2 fires, 3 passes, 4 fires (and exhausts), rest pass.
        assert!(check_io("p.combo").is_ok());
        assert!(check_io("p.combo").is_err());
        assert!(check_io("p.combo").is_ok());
        assert!(check_io("p.combo").is_err());
        assert!(check_io("p.combo").is_ok());
        assert!(check_io("p.combo").is_ok());
        disarm_all();
    }

    #[test]
    fn off_disarms_via_spec() {
        let _g = serial();
        disarm_all();
        arm("p.off=err").unwrap();
        assert!(check_io("p.off").is_err());
        arm("p.off=off").unwrap();
        assert!(check_io("p.off").is_ok());
        disarm_all();
    }

    #[test]
    fn malformed_specs_are_rejected_atomically() {
        let _g = serial();
        disarm_all();
        assert!(arm("nonsense").is_err());
        assert!(arm("p=explode").is_err());
        assert!(arm("p=sleep").is_err(), "sleep needs an argument");
        assert!(arm("p=torn(x)").is_err());
        assert!(arm("p=err*0").is_err(), "zero times is meaningless");
        assert!(
            list().is_empty(),
            "failed arms must not leave partial state"
        );
    }

    #[test]
    fn list_reports_hits_and_fired() {
        let _g = serial();
        disarm_all();
        arm("p.count=sleep(0)/2").unwrap();
        for _ in 0..5 {
            pause("p.count");
        }
        let status = list();
        let p = status.iter().find(|p| p.name == "p.count").unwrap();
        assert_eq!(p.hits, 5);
        assert_eq!(p.fired, 2);
        disarm_all();
    }
}
