//! Crash-consistency chaos: boots the real `matchd` binary as a child
//! process, mutates a journaled corpus while randomly injected faults
//! (including `abort` — the child dies mid-write) tear through the
//! snapshot and journal paths, restarts after every crash, and finally
//! proves the three invariants the persistence design promises:
//!
//! 1. **No acked mutation is lost** — every title whose upsert answered
//!    200 is present when the surviving journal replays over the pristine
//!    dataset.
//! 2. **No torn artifact is accepted** — after a clean boot the journal
//!    decodes with no torn tail, any snapshot decodes whole, and no `.tmp-` files
//!    remain (aborts mid-save tear only the atomic-rename temp).
//! 3. **The served engine is bit-identical to a clean rebuild** — the
//!    restarted server's `/align` equals an in-process engine built cold
//!    over pristine + journal replay.
//!
//! Bounded by default (fast enough for CI); `WIKIMATCH_CHAOS_SEEDS` and
//! `WIKIMATCH_CHAOS_STEPS` widen the sweep for soak runs.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use wiki_corpus::{Article, AttributeValue, Infobox, Language};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{
    AlignRequest, AlignResponse, CorpusRequest, FailpointsRequest, MutateRequest,
};
use wiki_serve::registry::CorpusSpec;
use wikimatch::snapshot::EngineSnapshot;
use wikimatch::{corpus_fingerprint, DeltaJournal, MatchEngine};

/// xorshift64* — deterministic per-seed fault schedule, no external rng.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

/// The fault schedule: every spec self-disarms after firing once, so each
/// iteration injects at most one fault per armed point. `abort` kills the
/// child mid-write — the crash the atomic-save and write-ahead protocols
/// must survive.
const FAULTS: &[&str] = &[
    "journal.append.write=err*1",
    "journal.append.write=torn(6)*1",
    "journal.append.write=abort*1",
    "journal.save.write=err*1",
    "snapshot.save.write=torn(64)*1",
    "snapshot.save.write=abort*1",
    "snapshot.encode=sleep(5)*1",
    "registry.spill=err*1",
];

struct Daemon {
    child: Child,
    client: MatchClient,
}

impl Daemon {
    fn spawn(dir: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_matchd"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--tiers",
                "tiny",
                "--workers",
                "2",
                "--snapshot-dir",
            ])
            .arg(dir)
            .args(["--enable-failpoints", "--log-level", "off"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("matchd spawns");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                panic!("matchd exited before announcing its address");
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address after the scheme")
                    .to_string();
            }
        };
        // Keep draining stderr so a chatty child can never fill the pipe
        // and wedge itself.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        let client = MatchClient::new(addr.as_str()).expect("client resolves the child address");
        Daemon { child, client }
    }

    /// Reaps a crashed child; panics if it is still running (callers only
    /// reap after a connection-level failure).
    fn reap(mut self) {
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        let _ = self.client.request("POST", "/shutdown", Some("{}"));
        let _ = self.child.wait();
    }
}

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn probe(title: &str, note: &str) -> MutateRequest {
    let mut infobox = Infobox::new("Infobox Filme");
    infobox.push(AttributeValue::text("nota", note));
    MutateRequest {
        entities: vec![Article::new(title, Language::Pt, "Filme", infobox)],
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wm-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

#[test]
fn chaos_crash_consistency_survives_random_fault_injection() {
    let dir = temp_dir();
    let seeds = env_or("WIKIMATCH_CHAOS_SEEDS", 2);
    let steps = env_or("WIKIMATCH_CHAOS_STEPS", 6);

    let mut acked: Vec<String> = Vec::new();
    let mut crashes = 0u64;
    let mut daemon = Daemon::spawn(&dir);

    for seed in 0..seeds {
        let mut rng = Rng::new(seed + 1);
        for step in 0..steps {
            // Arm one random fault; a dead child means the previous step's
            // abort fired — restart on the same directory.
            let spec = *rng.pick(FAULTS);
            if daemon
                .client
                .post(
                    "/failpoints",
                    &FailpointsRequest {
                        spec: spec.to_string(),
                    },
                )
                .is_err()
            {
                crashes += 1;
                daemon.reap();
                daemon = Daemon::spawn(&dir);
                daemon
                    .client
                    .post(
                        "/failpoints",
                        &FailpointsRequest {
                            spec: spec.to_string(),
                        },
                    )
                    .expect("freshly restarted child arms the failpoint");
            }

            // A burst of unique-title upserts; only 200s count as acked.
            for i in 0..3 {
                let title = format!("chaos-{seed}-{step}-{i}");
                match daemon
                    .client
                    .post("/corpora/pt-tiny/entities", &probe(&title, "v1"))
                {
                    Ok(response) if response.status == 200 => acked.push(title),
                    Ok(_) => {} // 503 (e.g. not durable): withheld ack.
                    Err(_) => {
                        // The child died mid-request (abort): the mutation
                        // was never acked. Restart and carry on.
                        crashes += 1;
                        daemon.reap();
                        daemon = Daemon::spawn(&dir);
                    }
                }
            }

            // Occasionally exercise the snapshot path so save/abort
            // faults have something to tear.
            if rng.next().is_multiple_of(3) {
                let exercise = if rng.next().is_multiple_of(2) {
                    "/warm"
                } else {
                    "/evict"
                };
                if daemon
                    .client
                    .post(
                        exercise,
                        &CorpusRequest {
                            corpus: "pt-tiny".to_string(),
                        },
                    )
                    .is_err()
                {
                    crashes += 1;
                    daemon.reap();
                    daemon = Daemon::spawn(&dir);
                }
            }
        }
    }
    // End of the storm: whatever state the last child is in, kill it hard
    // (one more simulated crash) and verify from a clean boot.
    let _ = daemon.child.kill();
    daemon.reap();

    // ---- Invariant 3 setup: a fresh child over the surviving directory.
    // Its first build recovers the journal (quarantining torn tails) and
    // serves the corpus.
    let mut daemon = Daemon::spawn(&dir);
    let served = daemon
        .client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny".to_string(),
                type_id: None,
            },
        )
        .expect("clean child serves after the storm");
    assert_eq!(served.status, 200, "{}", served.body);
    let served: AlignResponse = serde_json::from_str(&served.body).expect("align body parses");
    daemon.shutdown();

    // ---- Invariant 2: no torn artifact is accepted. The journal (if any
    // mutation survived) decodes with no torn tail, the snapshot (if any
    // spill landed) decodes whole, and the startup sweep left no
    // atomic-save temp files.
    for entry in std::fs::read_dir(&dir).expect("chaos dir lists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !name.contains(".tmp-"),
            "torn atomic-save temp survived the startup sweep: {name}"
        );
    }
    let snap = dir.join("pt-tiny.snap");
    if snap.is_file() {
        let bytes = std::fs::read(&snap).expect("surviving snapshot reads");
        EngineSnapshot::from_bytes(&bytes).expect("surviving snapshot is whole, not torn");
    }
    let spec = CorpusSpec::tier(Language::Pt, "tiny").expect("tiny tier exists");
    let pristine = spec.dataset();
    let journal_path = dir.join("pt-tiny.journal");
    let journal = if journal_path.is_file() {
        let (journal, torn) =
            DeltaJournal::load_recovering(&journal_path).expect("surviving journal header decodes");
        assert!(
            torn.is_none(),
            "surviving journal still has a torn tail after recovery: {torn:?}"
        );
        journal
    } else {
        DeltaJournal::new(corpus_fingerprint(&pristine))
    };
    assert_eq!(
        journal.base_fingerprint,
        corpus_fingerprint(&pristine),
        "journal lineage no longer roots at the pristine dataset"
    );

    // ---- Invariant 1: no acked mutation lost. Replay the journal over
    // pristine, verifying every record's fingerprint, then check that
    // every acked title is present. (Compaction may have folded the chain
    // into one composed record; title presence is compaction-invariant.)
    let mut replayed = pristine.clone();
    for record in &journal.records {
        record.delta.apply_to(&mut replayed.corpus);
        assert_eq!(
            corpus_fingerprint(&replayed),
            record.post_fingerprint,
            "journal record fails fingerprint verification on replay"
        );
    }
    let lost: Vec<&String> = acked
        .iter()
        .filter(|title| replayed.corpus.get_by_title(&Language::Pt, title).is_none())
        .collect();
    assert!(
        lost.is_empty(),
        "{} of {} acked mutations lost across {crashes} crashes: {lost:?}",
        lost.len(),
        acked.len()
    );

    // ---- Invariant 3: the answer the restarted server gave equals a cold
    // in-process rebuild over the replayed dataset, type by type.
    let engine = MatchEngine::builder(Arc::new(replayed)).build();
    assert!(!served.alignments.is_empty());
    for alignment in &served.alignments {
        let reference = engine
            .align(&alignment.type_id)
            .expect("served type exists in the rebuilt engine")
            .cross_pairs();
        assert_eq!(
            alignment.pairs, reference,
            "served alignment of type {:?} diverges from a clean rebuild",
            alignment.type_id
        );
    }
    eprintln!(
        "chaos: {} acked mutations, {} journal records, {crashes} crashes, 0 lost",
        acked.len(),
        journal.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
