//! Self-tests of the benchmark program on smoke-sized instances: the
//! sequential models accept every node, a seed reproduces itself
//! exactly, and the traced wrapper is byte-neutral on LOTS and JIAJIA.

use lots_perfbench::{run_instance, Instance, Outcome, Workload, WORKLOADS};

fn smoke(workload: Workload, seed: u64, traced: bool) -> Outcome {
    run_instance(Instance {
        workload,
        seed,
        smoke: true,
        traced,
    })
}

fn virt(o: &Outcome, name: &str) -> f64 {
    o.virt
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn every_node_matches_the_sequential_model() {
    for w in WORKLOADS {
        let o = smoke(w, 3, false);
        assert_eq!(o.node_ok.len(), o.nodes, "{}", w.name());
        assert!(
            o.node_ok.iter().all(|&ok| ok),
            "{}: {:?}",
            w.name(),
            o.node_ok
        );
        assert!(virt(&o, "virtual_s") > 0.0, "{}", w.name());
        assert!(o.host_run_s > 0.0 && o.setup_s > 0.0, "{}", w.name());
    }
}

#[test]
fn traced_wrapper_is_byte_neutral() {
    // hot_object, sor_wide and churn_journal run LOTS; sor_jiajia runs
    // JIAJIA.
    for w in WORKLOADS {
        let plain = smoke(w, 9, false);
        let traced = smoke(w, 9, true);
        assert_eq!(plain.checksums, traced.checksums, "{}", w.name());
        for (k, v) in &plain.virt {
            assert_eq!(
                v.to_bits(),
                virt(&traced, k).to_bits(),
                "{}: {k} differs under tracing",
                w.name()
            );
        }
        assert!(plain.traces.is_none());
        let spans = traced.traces.as_ref().expect("traced run keeps its spans");
        assert_eq!(spans.len(), traced.nodes, "{}", w.name());
        assert!(virt(&traced, "core.barrier.count") > 0.0, "{}", w.name());
        assert!(virt(&traced, "core.view.count") > 0.0, "{}", w.name());
    }
}

#[test]
fn spans_nest_inside_their_kernel_span() {
    let o = smoke(Workload::ChurnJournal, 1, true);
    for t in o.traces.as_ref().unwrap() {
        let (ks, ke) = t.kernel_virt;
        let (hs, he) = t.kernel_host;
        let mut last_virt = ks;
        for s in &t.spans {
            assert!(s.virt_start >= last_virt && s.virt_end >= s.virt_start);
            assert!(s.virt_end <= ke);
            assert!(s.host_start >= hs && s.host_end <= he && s.host_end >= s.host_start);
            last_virt = s.virt_end;
        }
    }
    // Churn exercises every lifecycle entry point.
    for k in ["alloc", "free", "lookup", "view_mut"] {
        assert!(virt(&o, &format!("core.{k}.count")) > 0.0, "{k}");
    }
}

#[test]
fn a_seed_reproduces_itself_and_seeds_differ() {
    let a = smoke(Workload::SorWide, 4, false);
    let b = smoke(Workload::SorWide, 4, false);
    let c = smoke(Workload::SorWide, 5, false);
    assert_eq!(a.virt, b.virt);
    assert_ne!(virt(&a, "virtual_s"), virt(&c, "virtual_s"));
}
