//! E13 — simulator throughput: one large crowd (10^5 tasks, 10^4 workers,
//! redundancy 3) drained to completion, measuring events/sec.
//!
//! What it pins, beyond the table:
//!
//! * **Determinism** — every world is run twice; the same seed must
//!   produce bit-identical runs.
//! * **No quadratic hot path** — events/sec must not collapse as the
//!   open-task list grows 10× (the original engine cloned and scanned the
//!   whole open list per event, so its per-event cost scaled with n; the
//!   indexed queue + per-worker cursors make it O(1)).
//!
//! Writes `BENCH_E13.json` at the workspace root so the perf trajectory is
//! tracked across PRs. Smoke mode (`REPROWD_E13_SMOKE=1`, used by CI)
//! shrinks the world and skips nothing else.

use reprowd_bench::{banner, table, timed};
use reprowd_platform::{AnswerModel, CrowdPlatform, SimPlatform, TaskId, TaskSpec};

struct Run {
    tasks: usize,
    workers: usize,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    digest: u64,
}

fn specs(n: usize, redundancy: u32) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let model = AnswerModel::Label {
                truth: i % 2,
                labels: vec!["Yes".into(), "No".into()],
                difficulty: 0.1,
            };
            TaskSpec {
                payload: model.embed(serde_json::json!({ "url": format!("img{i}.jpg") })),
                n_assignments: redundancy,
            }
        })
        .collect()
}

/// FNV-1a over every run of every task — a stable fingerprint of the whole
/// observable outcome.
fn digest(p: &SimPlatform, ids: &[TaskId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for runs in p.fetch_runs_bulk(ids).expect("runs") {
        for r in runs {
            for b in serde_json::to_string(&r).expect("serializes").bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

fn drive(tasks: usize, workers: usize, seed: u64) -> Run {
    let p = SimPlatform::quick(workers, 0.9, seed);
    let proj = p.create_project("e13").expect("project");
    let ids: Vec<TaskId> = p
        .publish_tasks(proj, specs(tasks, 3))
        .expect("publish")
        .iter()
        .map(|t| t.id)
        .collect();
    let (_, wall_ms) = timed(|| p.run_until_complete(&ids).expect("complete"));
    let events = p.events();
    Run {
        tasks,
        workers,
        wall_ms,
        events,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        digest: digest(&p, &ids),
    }
}

fn write_json(path: &str, mode: &str, cores: usize, rows: &[&Run]) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E13 simulator throughput\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"host_parallelism\": {cores},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tasks\": {}, \"workers\": {}, \"wall_ms\": {:.1}, \
             \"events\": {}, \"events_per_sec\": {:.0}}}{}\n",
            r.tasks,
            r.workers,
            r.wall_ms,
            r.events,
            r.events_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_E13.json");
}

fn main() {
    let smoke = std::env::var_os("REPROWD_E13_SMOKE").is_some();
    let (tasks, workers) = if smoke { (2_000, 200) } else { (100_000, 10_000) };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    banner(
        "E13",
        &format!(
            "Simulator throughput (n={tasks} tasks, {workers} workers, \
             {cores}-core host{})",
            if smoke { ", SMOKE" } else { "" }
        ),
        "O(1) per-event hot path; bit-identical reruns per seed",
    );

    // The 10x-smaller world first, then the full one: the quadratic
    // detector compares the two.
    let mut results = Vec::new();
    for n in [tasks / 10, tasks] {
        let run = drive(n, workers, 42);
        let rerun = drive(n, workers, 42);
        assert_eq!(run.digest, rerun.digest, "n={n}: the same seed must be bit-identical");
        assert_eq!(run.events, rerun.events);
        results.push(run);
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.tasks.to_string(),
                format!("{:.0}", r.wall_ms),
                r.events.to_string(),
                format!("{:.0}", r.events_per_sec),
                format!("{:#018x}", r.digest),
            ]
        })
        .collect();
    table(&["tasks", "wall ms", "events", "events/sec", "digest"], &rows);

    // Quadratic detector: grow the world 10× and demand events/sec stays
    // within 3× — an O(open) per-event engine degrades ~10× here instead.
    let (small, big) = (&results[0], &results[1]);
    let ratio = small.events_per_sec / big.events_per_sec;
    println!(
        "\nscaling: {:.0} ev/s at n={} vs {:.0} ev/s at n={} ({ratio:.2}x)",
        small.events_per_sec, small.tasks, big.events_per_sec, big.tasks
    );
    assert!(
        ratio < 3.0,
        "throughput collapsed {ratio:.1}x when the world grew 10x — \
         the per-event hot path is scanning the open-task list again"
    );

    if smoke {
        println!("\nPASS (smoke): bit-identical reruns; no O(n) hot path. JSON not rewritten.");
    } else {
        let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E13.json");
        write_json(json_path, "full", cores, &[big, small]);
        println!(
            "\nPASS: bit-identical reruns; no O(n) hot path; results recorded to \
             BENCH_E13.json"
        );
    }
}
