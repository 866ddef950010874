//! Every metric the benchmark prints: name, unit, direction.
//!
//! `BENCHMARK.json` lists the same names (a unit test holds the two
//! together); later performance and simplicity changes are judged by
//! them, so a name is never reused for a different quantity.

use crate::stats::Better::{self, Higher, Lower};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a caller of the system sees; defined on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("playouts_per_s", "1/s", Higher),
    m("op_p50_ms", "ms", Lower),
    m("ok_share", "ratio", Higher),
    m("mean_score", "score", Higher),
    m("peak_rss_mb", "MiB", Lower),
];

/// One layer at a time, from domain primitive to HTTP socket. Printed
/// by the traced pass.
pub const PER_LAYER: [MetricDef; 83] = [
    // The workload's own tail: p95 latency over every op of the
    // untraced half of the traced run, as it ran. It moves with the
    // box's slow spells, so it carries no regression bound.
    m("pass.op_p95_ms", "ms", Lower),
    // morpion: the paper's domain.
    m("morpion.apply_undo_ns", "ns", Lower),
    m("morpion.legal_moves_ns", "ns", Lower),
    m("morpion.state_hash_ns", "ns", Lower),
    m("morpion.clone_ns", "ns", Lower),
    m("morpion.playout_us", "us", Lower),
    m("morpion.playout_moves_per_s", "1/s", Higher),
    // games: the other domains.
    m("games.samegame.apply_undo_ns", "ns", Lower),
    m("games.samegame.legal_moves_ns", "ns", Lower),
    m("games.samegame.state_hash_ns", "ns", Lower),
    m("games.samegame.clone_ns", "ns", Lower),
    m("games.samegame.playout_us", "us", Lower),
    m("games.samegame6.playout_us", "us", Lower),
    m("games.tsp.playout_us", "us", Lower),
    m("games.sudoku.playout_us", "us", Lower),
    m("games.sum.playout_us", "us", Lower),
    // core.search: playout core, NMCS, NRPA, erasure, metrics switch.
    m("core.search.playout_scratch_per_s", "1/s", Higher),
    m("core.search.playout_snapshot_per_s", "1/s", Higher),
    m("core.search.nested1_evals_per_s", "1/s", Higher),
    m("core.search.nested2_evals_per_s", "1/s", Higher),
    m("core.search.nested1_overhead_share", "ratio", Lower),
    m("core.nrpa.iterations_per_s", "1/s", Higher),
    m("core.erased.dyn_overhead_share", "ratio", Lower),
    m("core.metrics.enabled_overhead_share", "ratio", Lower),
    // core.exec: the shared executor pool and the parallel executors.
    m("core.exec.run_batch_ns_per_slot_1", "ns", Lower),
    m("core.exec.run_batch_ns_per_slot_8", "ns", Lower),
    m("core.exec.run_batch_ns_per_slot_64", "ns", Lower),
    m("core.exec.parks_per_batch", "count", Lower),
    m("core.exec.steals_per_batch", "count", Lower),
    m("core.exec.root_w1_playouts_per_s", "1/s", Higher),
    m("core.exec.root_w2_playouts_per_s", "1/s", Higher),
    m("core.exec.root_w2_efficiency", "ratio", Higher),
    m("core.exec.root_w1_overhead_share", "ratio", Lower),
    m("core.exec.leaf_w2_playouts_per_s", "1/s", Higher),
    // core.uct: the two trees.
    m("core.uct.arena_iter_per_s", "1/s", Higher),
    m("core.uct.tptree_w1_iter_per_s", "1/s", Higher),
    m("core.uct.tptree_w1_global_iter_per_s", "1/s", Higher),
    m("core.uct.tptree_w1_vloss_iter_per_s", "1/s", Higher),
    m("core.uct.expansions_per_search", "count", Lower),
    m("core.uct.tree_share", "ratio", Lower),
    m("core.uct.reuse_on_iter_per_s", "1/s", Higher),
    // core.session: warm trees.
    m("core.session.step_warm_ms", "ms", Lower),
    m("core.session.step_cold_ms", "ms", Lower),
    m("core.session.tt_hits_per_step", "count", Higher),
    m("core.session.tt_evictions_per_step", "count", Lower),
    m("core.session.approx_bytes", "B", Lower),
    // engine.
    m("engine.submit_join_us", "us", Lower),
    m("engine.self_us", "us", Lower),
    m("engine.queue_wait_p50_us", "us", Lower),
    m("engine.jobs_per_s_w1", "1/s", Higher),
    m("engine.session_step_self_us", "us", Lower),
    m("engine.replicas4_wall_ratio", "ratio", Lower),
    // serve and its JSON codec.
    m("serve.roundtrip_us", "us", Lower),
    m("serve.self_us", "us", Lower),
    m("serve.post_us", "us", Lower),
    m("serve.wait_us", "us", Lower),
    m("serve.healthz_us", "us", Lower),
    m("serve.metrics_text_us", "us", Lower),
    m("serve.shed_share", "ratio", Lower),
    m("serde_json.spec_decode_ns", "ns", Lower),
    m("serde_json.spec_encode_ns", "ns", Lower),
    m("serde_json.report_encode_ns", "ns", Lower),
    // The ladder: the same jobs run directly, through the engine, and
    // through the socket.
    m("ladder.direct_us", "us", Lower),
    m("ladder.untraced_roundtrip_us", "us", Lower),
    m("ladder.reconstruction_error_share", "ratio", Lower),
    m("ladder.mismatches", "count", Lower),
    // parallel, cluster, des: the paper's own table. The front door
    // routes root-parallel search through core.exec, so these move no
    // end-to-end metric; they give later deletions a before and after.
    m("parallel.sim.rr_speedup_8", "ratio", Higher),
    m("parallel.sim.rr_speedup_16", "ratio", Higher),
    m("parallel.sim.rr_speedup_32", "ratio", Higher),
    m("parallel.sim.rr_speedup_64", "ratio", Higher),
    m("parallel.sim.lm_speedup_8", "ratio", Higher),
    m("parallel.sim.lm_speedup_16", "ratio", Higher),
    m("parallel.sim.lm_speedup_32", "ratio", Higher),
    m("parallel.sim.lm_speedup_64", "ratio", Higher),
    m("parallel.sim.jobs_per_s", "1/s", Higher),
    m("parallel.runner.lm_wall_ms", "ms", Lower),
    m("parallel.runner.rr_wall_ms", "ms", Lower),
    m("parallel.runner.msgs_per_job", "count", Lower),
    m("cluster.send_recv_ns", "ns", Lower),
    m("des.events_per_s", "1/s", Higher),
    // The traced pass itself.
    m("trace.overhead_share", "ratio", Lower),
    m("trace.harness_self_share", "ratio", Lower),
    m("trace.spans", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde::Value;
    use std::collections::BTreeSet;

    fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get_field(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn rows<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get_field(key) {
            Some(Value::Array(rows)) => rows,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_valid_name(def.name), "{}", def.name);
            assert!(is_valid_unit(def.unit), "{} {}", def.name, def.unit);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        for (name, why) in WORKLOADS {
            assert!(is_valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        assert!(!is_valid_name("") && !is_valid_name(".x") && !is_valid_name("a b"));
        assert!(!is_valid_name(&"x".repeat(65)));
        assert!(is_valid_unit("1/s") && !is_valid_unit("per second"));
    }

    #[test]
    fn manifest_lists_exactly_the_metrics_the_code_prints() {
        let manifest = manifest();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(&manifest, key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (row, def) in listed.iter().zip(defs) {
                assert_eq!(text(row, "name"), def.name);
                assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
                assert_eq!(
                    Better::parse(text(row, "better")),
                    Some(def.better),
                    "{}",
                    def.name
                );
            }
        }
        for row in rows(&manifest, "end_to_end") {
            let bound = match row.get_field("bound") {
                Some(Value::F64(b)) => *b,
                other => panic!("{}: bound {other:?}", text(row, "name")),
            };
            assert!(bound > 0.0 && bound <= 0.25, "{}", text(row, "name"));
        }
        assert!(rows(&manifest, "end_to_end")
            .iter()
            .any(|r| text(r, "name") == "setup_s"
                && text(r, "unit") == "s"
                && text(r, "better") == "lower"));
    }

    #[test]
    fn manifest_lists_exactly_the_workloads_the_code_runs() {
        let manifest = manifest();
        let listed = rows(&manifest, "workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (row, (name, why)) in listed.iter().zip(WORKLOADS) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "why"), why);
        }
    }
}
