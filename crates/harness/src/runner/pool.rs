//! The process-pool core shared by `epic-run check -j N` and the
//! `epic-serve` daemon: LPT slot assignment from cost hints, per-job
//! timeout, crash classification, bounded retry, and an NDJSON-able
//! event stream.
//!
//! A [`Pool`] owns a pending queue and up to `slots` running child
//! processes. Each child is an `epic-run --one <id> --result-json <p>`
//! invocation of [`PoolCfg::program`] (the CLI passes its own binary,
//! the daemon the `epic-run` it was pointed at), with stdout/stderr
//! captured to `<dir>/<stem>.log`. The pool is deliberately
//! synchronous and non-blocking: callers drive it by calling
//! [`Pool::tick`] in their own loop (the CLI until [`Pool::is_idle`],
//! the daemon forever), collecting finished attempts and the
//! [`PoolEvent`] stream as plain data — the pool never calls back into
//! its owner.

use crate::shapes::ShapesDoc;
use epic_util::json::{push_str_literal, render_num, Json};
use std::fmt::Write as _;
use std::fs::File;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

pub use crate::shapes::ShapeRecord;

/// Static pool configuration.
#[derive(Debug, Clone)]
pub struct PoolCfg {
    /// Concurrent worker slots.
    pub slots: usize,
    /// Per-attempt wall-clock timeout; a child past it is killed and
    /// the attempt classified as crashed.
    pub timeout: Duration,
    /// Directory for per-attempt artifacts (`<stem>.json`, `<stem>.log`).
    pub dir: PathBuf,
    /// The `epic-run` binary to invoke as `--one` children.
    pub program: PathBuf,
}

/// One unit of work: run experiment `experiment` as a child process, up
/// to `max_attempts` times on crash.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The registry experiment id.
    pub experiment: String,
    /// LPT cost hint ([`crate::experiments::Experiment::cost`]).
    pub cost: u32,
    /// Artifact file stem (the CLI uses the experiment id; the daemon
    /// prefixes its queue job id so repeated submissions don't collide).
    pub stem: String,
    /// Extra environment for the child (the daemon forwards per-job
    /// `EPIC_*` overrides; children otherwise inherit the parent env).
    pub env: Vec<(String, String)>,
    /// Attempt budget: crashes before this many attempts re-queue.
    pub max_attempts: u32,
    /// Caller correlation id (the daemon's queue job id; the CLI uses 0).
    pub tag: u64,
}

impl JobSpec {
    /// The CLI's spec for a registry entry: stem = id, inherited env,
    /// the historical crash-retry budget of one retry.
    pub fn for_experiment(e: &crate::experiments::Experiment) -> JobSpec {
        JobSpec {
            experiment: e.id.to_string(),
            cost: e.cost,
            stem: e.id.to_string(),
            env: Vec::new(),
            max_attempts: 2,
            tag: 0,
        }
    }
}

/// How one finished attempt ended.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The child ran to completion and wrote a parseable single-record
    /// shapes document (its oracle verdict may still be FAIL — that is
    /// a *result*, never retried).
    Completed(Box<ShapeRecord>),
    /// Panic, signal, timeout, unparseable/missing result, or a spawn
    /// failure. `will_retry` reports whether the pool re-queued the job
    /// (attempt budget not yet exhausted).
    Crashed {
        /// Human-readable classification.
        reason: String,
        /// Whether the pool re-queued this job for another attempt.
        will_retry: bool,
    },
}

/// One finished attempt, as returned by [`Pool::tick`].
#[derive(Debug)]
pub struct AttemptEnd {
    /// The spec this attempt belonged to.
    pub spec: JobSpec,
    /// 1-based attempt number within the pool.
    pub attempt: u32,
    /// Wall-clock of the attempt.
    pub duration: Duration,
    /// Captured child output.
    pub log_path: PathBuf,
    /// Result JSON path the child was told to write.
    pub json_path: PathBuf,
    /// The classification.
    pub outcome: AttemptOutcome,
}

/// A running job that [`Pool::abort_all`] killed before it could
/// finish (graceful drain / shutdown). Deliberately *not* an
/// [`AttemptEnd`]: an aborted attempt consumes no retry budget — the
/// caller decides whether to re-queue (the daemon journals these as
/// crashed-with-retry-credit so a restart resumes them).
#[derive(Debug)]
pub struct AbortedAttempt {
    /// The spec of the killed job.
    pub spec: JobSpec,
    /// The attempt number that was in flight.
    pub attempt: u32,
    /// How long it had been running.
    pub duration: Duration,
}

/// Kinds of [`PoolEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The job entered the pending queue.
    Queued,
    /// An attempt's child process started.
    Started,
    /// An attempt finished (completed or crashed).
    Finished,
}

impl EventKind {
    /// The NDJSON tag.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Queued => "queued",
            EventKind::Started => "started",
            EventKind::Finished => "finished",
        }
    }
}

/// One progress record. The CLI streams these to `--events <path>` as
/// NDJSON; the daemon folds them into its queue journal and metrics —
/// both views report the same facts because both come from here.
///
/// Serialized schema (`epic-events-v1`, one object per line):
/// `event` (queued|started|finished), `experiment`, `tag`, `attempt`,
/// `ts_ms` (unix epoch milliseconds), and for `finished` only:
/// `outcome` (completed|crashed), `duration_ms`, `verdict`
/// (PASS|ADVISORY|FAIL, completed only), `will_retry` (crashed only).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEvent {
    /// What happened.
    pub kind: EventKind,
    /// The experiment id.
    pub experiment: String,
    /// Caller correlation id (0 for the CLI).
    pub tag: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Unix epoch milliseconds when the event was recorded.
    pub ts_ms: u64,
    /// `finished` only: wall-clock of the attempt.
    pub duration_ms: Option<f64>,
    /// `finished` only: `completed` or `crashed`.
    pub outcome: Option<String>,
    /// `finished` + completed only: the oracle verdict.
    pub verdict: Option<String>,
    /// `finished` + crashed only: whether the pool re-queued the job.
    pub will_retry: Option<bool>,
}

impl PoolEvent {
    /// A `kind` event for `spec`'s `attempt`, stamped now; the
    /// `finished`-only fields start empty.
    pub fn new(kind: EventKind, spec: &JobSpec, attempt: u32) -> PoolEvent {
        PoolEvent {
            kind,
            experiment: spec.experiment.clone(),
            tag: spec.tag,
            attempt,
            ts_ms: unix_ms(),
            duration_ms: None,
            outcome: None,
            verdict: None,
            will_retry: None,
        }
    }

    /// One NDJSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"event\": ");
        push_str_literal(&mut out, self.kind.name());
        out.push_str(", \"experiment\": ");
        push_str_literal(&mut out, &self.experiment);
        let _ = write!(
            out,
            ", \"tag\": {}, \"attempt\": {}, \"ts_ms\": {}",
            self.tag, self.attempt, self.ts_ms
        );
        if let Some(d) = self.duration_ms {
            let _ = write!(out, ", \"duration_ms\": {}", render_num(d));
        }
        if let Some(o) = &self.outcome {
            out.push_str(", \"outcome\": ");
            push_str_literal(&mut out, o);
        }
        if let Some(v) = &self.verdict {
            out.push_str(", \"verdict\": ");
            push_str_literal(&mut out, v);
        }
        if let Some(w) = self.will_retry {
            let _ = write!(out, ", \"will_retry\": {w}");
        }
        out.push('}');
        out
    }

    /// Parses one NDJSON line (the round-trip partner of
    /// [`PoolEvent::to_json`]).
    pub fn parse(line: &str) -> Result<PoolEvent, String> {
        let v = Json::parse(line)?;
        let str_field = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        let num_field = |key: &str| v.get(key).and_then(Json::as_f64);
        let kind = match str_field("event").as_deref() {
            Some("queued") => EventKind::Queued,
            Some("started") => EventKind::Started,
            Some("finished") => EventKind::Finished,
            other => return Err(format!("events: unknown event kind {other:?}")),
        };
        Ok(PoolEvent {
            kind,
            experiment: str_field("experiment").ok_or("events: missing experiment")?,
            tag: num_field("tag").ok_or("events: missing tag")? as u64,
            attempt: num_field("attempt").ok_or("events: missing attempt")? as u32,
            ts_ms: num_field("ts_ms").ok_or("events: missing ts_ms")? as u64,
            duration_ms: num_field("duration_ms"),
            outcome: str_field("outcome"),
            verdict: str_field("verdict"),
            will_retry: v.get("will_retry").and_then(Json::as_bool),
        })
    }
}

/// Milliseconds since the unix epoch (0 if the clock is before 1970).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

struct Running {
    spec: JobSpec,
    attempt: u32,
    child: Child,
    started: Instant,
    json_path: PathBuf,
    log_path: PathBuf,
}

/// The pool itself. See the module docs for the driving protocol.
pub struct Pool {
    cfg: PoolCfg,
    /// Pending (spec, next-attempt) pairs, kept sorted ascending by
    /// (cost, id) so `pop()` takes the heaviest first (LPT). Retries are
    /// pushed to the back, i.e. run next — a crashed job's slot is
    /// already warm and its result is blocking the merge.
    pending: Vec<(JobSpec, u32)>,
    running: Vec<Running>,
    events: Vec<PoolEvent>,
}

impl Pool {
    /// An empty pool over `cfg` (slot count is clamped to >= 1).
    pub fn new(mut cfg: PoolCfg) -> Pool {
        cfg.slots = cfg.slots.max(1);
        Pool {
            cfg,
            pending: Vec::new(),
            running: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The configuration the pool runs under.
    pub fn cfg(&self) -> &PoolCfg {
        &self.cfg
    }

    /// Queues `spec` (emits a `queued` event). The LPT order is
    /// maintained across submissions.
    pub fn submit(&mut self, spec: JobSpec) {
        self.events
            .push(PoolEvent::new(EventKind::Queued, &spec, 1));
        self.pending.push((spec, 1));
        self.pending
            .sort_by(|(a, _), (b, _)| a.cost.cmp(&b.cost).then(a.experiment.cmp(&b.experiment)));
    }

    /// True when nothing is pending or running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// (pending, running, slots).
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.pending.len(), self.running.len(), self.cfg.slots)
    }

    /// Drains the buffered event stream.
    pub fn take_events(&mut self) -> Vec<PoolEvent> {
        std::mem::take(&mut self.events)
    }

    /// One scheduling step: fill free slots from the pending queue,
    /// reap finished/timed-out children, classify them, and re-queue
    /// crashes with remaining attempt budget. Returns the attempts that
    /// ended this tick. Never blocks; callers sleep between ticks.
    pub fn tick(&mut self) -> Vec<AttemptEnd> {
        let mut ended = Vec::new();
        while self.running.len() < self.cfg.slots {
            let Some((spec, attempt)) = self.pending.pop() else {
                break;
            };
            match self.spawn(&spec, attempt) {
                Ok(job) => {
                    self.events
                        .push(PoolEvent::new(EventKind::Started, &spec, attempt));
                    self.running.push(job);
                }
                Err(e) => {
                    // A spawn failure is an instant crash: same retry
                    // budget, no child to wait for.
                    let end = self.finish_crash(
                        spec,
                        attempt,
                        Duration::ZERO,
                        format!("could not spawn child: {e}"),
                    );
                    ended.push(end);
                }
            }
        }
        let mut i = 0;
        while i < self.running.len() {
            let timed_out = self.running[i].started.elapsed() > self.cfg.timeout;
            // (exit, killed-by-us): a child that exited on its own is
            // never treated as timed out, even if observed past the
            // deadline — its result file decides.
            let exited = match self.running[i].child.try_wait() {
                Ok(Some(status)) => Some((status.code(), false)),
                Ok(None) if timed_out => {
                    let _ = self.running[i].child.kill();
                    let _ = self.running[i].child.wait();
                    Some((None, true))
                }
                Ok(None) => None,
                Err(_) => Some((None, false)),
            };
            let Some((exit, killed)) = exited else {
                i += 1;
                continue;
            };
            let job = self.running.swap_remove(i);
            let duration = job.started.elapsed();
            match classify(&job, killed, exit) {
                Classified::Completed(rec) => {
                    let mut ev = PoolEvent::new(EventKind::Finished, &job.spec, job.attempt);
                    ev.duration_ms = Some(duration.as_secs_f64() * 1e3);
                    ev.outcome = Some("completed".to_string());
                    ev.verdict = Some(rec.report.verdict().to_string());
                    self.events.push(ev);
                    ended.push(AttemptEnd {
                        spec: job.spec,
                        attempt: job.attempt,
                        duration,
                        log_path: job.log_path,
                        json_path: job.json_path,
                        outcome: AttemptOutcome::Completed(Box::new(rec)),
                    });
                }
                Classified::Crashed(reason) => {
                    ended.push(self.finish_crash(job.spec, job.attempt, duration, reason));
                }
            }
        }
        ended
    }

    /// Records a crashed attempt: emits the `finished` event, re-queues
    /// when budget remains, and builds the [`AttemptEnd`].
    fn finish_crash(
        &mut self,
        spec: JobSpec,
        attempt: u32,
        duration: Duration,
        reason: String,
    ) -> AttemptEnd {
        let will_retry = attempt < spec.max_attempts;
        let mut ev = PoolEvent::new(EventKind::Finished, &spec, attempt);
        ev.duration_ms = Some(duration.as_secs_f64() * 1e3);
        ev.outcome = Some("crashed".to_string());
        ev.will_retry = Some(will_retry);
        self.events.push(ev);
        if will_retry {
            // Back of the LPT vec = popped next.
            self.pending.push((spec.clone(), attempt + 1));
        }
        let (json_path, log_path) = self.artifact_paths(&spec.stem);
        AttemptEnd {
            spec,
            attempt,
            duration,
            log_path,
            json_path,
            outcome: AttemptOutcome::Crashed { reason, will_retry },
        }
    }

    /// Kills every running child and empties the pending queue.
    /// Aborted attempts consume **no** retry budget — see
    /// [`AbortedAttempt`]. Pending (never-started) jobs come back too,
    /// with `attempt` = the attempt they were queued for.
    pub fn abort_all(&mut self) -> Vec<AbortedAttempt> {
        let mut aborted = Vec::new();
        for mut job in self.running.drain(..) {
            let _ = job.child.kill();
            let _ = job.child.wait();
            aborted.push(AbortedAttempt {
                attempt: job.attempt,
                duration: job.started.elapsed(),
                spec: job.spec,
            });
        }
        for (spec, attempt) in self.pending.drain(..) {
            aborted.push(AbortedAttempt {
                spec,
                attempt,
                duration: Duration::ZERO,
            });
        }
        aborted
    }

    fn artifact_paths(&self, stem: &str) -> (PathBuf, PathBuf) {
        (
            self.cfg.dir.join(format!("{stem}.json")),
            self.cfg.dir.join(format!("{stem}.log")),
        )
    }

    fn spawn(&self, spec: &JobSpec, attempt: u32) -> std::io::Result<Running> {
        let (json_path, log_path) = self.artifact_paths(&spec.stem);
        let _ = std::fs::remove_file(&json_path); // stale results must not count
        let log = File::create(&log_path)?;
        let mut cmd = Command::new(&self.cfg.program);
        cmd.arg("--one")
            .arg(&spec.experiment)
            .arg("--result-json")
            .arg(&json_path)
            .stdin(Stdio::null())
            .stdout(Stdio::from(log.try_clone()?))
            .stderr(Stdio::from(log));
        for (k, v) in &spec.env {
            cmd.env(k, v);
        }
        let child = cmd.spawn()?;
        Ok(Running {
            spec: spec.clone(),
            attempt,
            child,
            started: Instant::now(),
            json_path,
            log_path,
        })
    }
}

enum Classified {
    Completed(ShapeRecord),
    Crashed(String),
}

/// `killed` means the pool killed the child at the timeout — a child
/// that beat the deadline on its own is classified purely by its result
/// file, however close to the limit it finished.
fn classify(job: &Running, killed: bool, exit: Option<i32>) -> Classified {
    if killed {
        return Classified::Crashed(format!(
            "timed out after {:.0}s and was killed",
            job.started.elapsed().as_secs_f64()
        ));
    }
    match std::fs::read_to_string(&job.json_path)
        .map_err(|e| e.to_string())
        .and_then(|text| ShapesDoc::parse(&text))
    {
        Ok(doc) if doc.records.len() == 1 => {
            let mut rec = doc.records.into_iter().next().unwrap();
            rec.attempts = job.attempt;
            Classified::Completed(rec)
        }
        Ok(doc) => Classified::Crashed(format!(
            "child wrote {} records instead of 1",
            doc.records.len()
        )),
        Err(e) => match exit {
            Some(code) => Classified::Crashed(format!("exit code {code}, no usable result: {e}")),
            None => Classified::Crashed(format!("killed by signal, no usable result: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str, cost: u32) -> JobSpec {
        JobSpec {
            experiment: id.to_string(),
            cost,
            stem: id.to_string(),
            env: Vec::new(),
            max_attempts: 2,
            tag: 7,
        }
    }

    #[test]
    fn events_round_trip_through_json() {
        // One of each kind, optional fields exercised both ways — this
        // pins the `epic-events-v1` record schema.
        let mut queued = PoolEvent::new(EventKind::Queued, &spec("fig4_garbage", 5), 1);
        queued.ts_ms = 1_700_000_000_123;
        let mut started = PoolEvent::new(EventKind::Started, &spec("fig4_garbage", 5), 2);
        started.ts_ms = 1_700_000_000_456;
        let mut done = PoolEvent::new(EventKind::Finished, &spec("fig4_garbage", 5), 2);
        done.ts_ms = 1_700_000_001_000;
        done.duration_ms = Some(543.25);
        done.outcome = Some("completed".to_string());
        done.verdict = Some("PASS".to_string());
        let mut crashed = PoolEvent::new(EventKind::Finished, &spec("fig4_garbage", 5), 1);
        crashed.ts_ms = 1_700_000_002_000;
        crashed.duration_ms = Some(10.0);
        crashed.outcome = Some("crashed".to_string());
        crashed.will_retry = Some(true);
        for ev in [queued, started, done, crashed] {
            let line = ev.to_json();
            assert!(!line.contains('\n'), "NDJSON lines must be single-line");
            let back = PoolEvent::parse(&line)
                .unwrap_or_else(|e| panic!("round trip failed: {e}\n{line}"));
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn event_schema_field_names_are_pinned() {
        let mut ev = PoolEvent::new(EventKind::Finished, &spec("x", 1), 3);
        ev.ts_ms = 42;
        ev.duration_ms = Some(1.5);
        ev.outcome = Some("crashed".to_string());
        ev.will_retry = Some(false);
        assert_eq!(
            ev.to_json(),
            "{\"event\": \"finished\", \"experiment\": \"x\", \"tag\": 7, \"attempt\": 3, \
             \"ts_ms\": 42, \"duration_ms\": 1.5, \"outcome\": \"crashed\", \"will_retry\": false}"
        );
    }

    #[test]
    fn event_parse_rejects_garbage() {
        assert!(PoolEvent::parse("not json").is_err());
        assert!(PoolEvent::parse("{\"event\": \"warped\"}").is_err());
        assert!(
            PoolEvent::parse("{\"event\": \"queued\"}").is_err(),
            "missing fields"
        );
    }

    fn test_cfg(dir: &std::path::Path, program: &str) -> PoolCfg {
        PoolCfg {
            slots: 2,
            timeout: Duration::from_secs(30),
            dir: dir.to_path_buf(),
            program: PathBuf::from(program),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("epic_pool_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A spawn failure (nonexistent program) burns one attempt, retries
    /// once, then reports a final crash — all through events.
    #[test]
    fn spawn_failure_consumes_retry_budget() {
        let dir = scratch("spawnfail");
        let mut pool = Pool::new(test_cfg(&dir, "/no/such/binary/epic-run"));
        pool.submit(spec("fig4_garbage", 1));
        let mut crashes = 0;
        for _ in 0..4 {
            for end in pool.tick() {
                match end.outcome {
                    AttemptOutcome::Crashed { will_retry, .. } => {
                        crashes += 1;
                        assert_eq!(will_retry, crashes == 1, "retry only on attempt 1");
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            if pool.is_idle() {
                break;
            }
        }
        assert_eq!(crashes, 2, "one attempt + one retry");
        assert!(pool.is_idle());
        let kinds: Vec<&str> = pool.take_events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["queued", "finished", "finished"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// LPT: the heavier job starts first when slots are scarce.
    #[test]
    fn heaviest_pending_job_starts_first() {
        let dir = scratch("lpt");
        let mut cfg = test_cfg(&dir, "/no/such/binary/epic-run");
        cfg.slots = 1;
        let mut pool = Pool::new(cfg);
        pool.submit(spec("light", 1));
        pool.submit(spec("heavy", 50));
        pool.submit(spec("medium", 10));
        // Run the pool dry; spawn failures end attempts instantly, so the
        // first-finished order equals the start order.
        let mut first_ended: Vec<String> = Vec::new();
        while !pool.is_idle() {
            for end in pool.tick() {
                if end.attempt == 1 {
                    first_ended.push(end.spec.experiment);
                }
            }
        }
        // Retries interleave, so compare only the first occurrence order.
        assert_eq!(first_ended, ["heavy", "medium", "light"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `abort_all` returns running and pending jobs without consuming
    /// retry budget, and leaves the pool idle.
    #[test]
    fn abort_all_preserves_attempt_credit() {
        let dir = scratch("abort");
        // A stand-in child that ignores the --one args and runs long
        // enough to still be alive when aborted.
        let script = dir.join("sleeper.sh");
        std::fs::write(&script, "#!/bin/sh\nsleep 30\n").unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        let mut cfg = test_cfg(&dir, script.to_str().unwrap());
        cfg.slots = 1;
        let mut pool = Pool::new(cfg);
        pool.submit(spec("running_job", 10));
        pool.submit(spec("pending_job", 1));
        let ended = pool.tick();
        assert!(ended.is_empty(), "sleep child must still be running");
        let (pending, running, _) = pool.counts();
        assert_eq!((pending, running), (1, 1));
        let mut aborted = pool.abort_all();
        aborted.sort_by(|a, b| a.spec.experiment.cmp(&b.spec.experiment));
        assert_eq!(aborted.len(), 2);
        assert_eq!(aborted[0].spec.experiment, "pending_job");
        assert_eq!(aborted[0].attempt, 1);
        assert_eq!(aborted[1].spec.experiment, "running_job");
        assert_eq!(aborted[1].attempt, 1, "aborts burn no attempt");
        assert!(pool.is_idle());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
