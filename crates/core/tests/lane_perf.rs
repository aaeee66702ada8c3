//! Ignored perf probe: per-model scalar vs lane timing. Run with
//! `cargo test -p ccmm-core --release --test lane_perf -- --ignored --nocapture`.

use ccmm_core::enumerate::for_each_observer;
use ccmm_core::model::{CheckScratch, LanePack, LaneScratch, ObserverIndex, SlotOrder};
use ccmm_core::sweep::supervisor::{sweep_supervised, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{MemoryModel, Model};
use std::ops::ControlFlow;
use std::time::Instant;

fn scalar(u: &Universe, cfg: &SweepConfig, models: &[Model]) -> u64 {
    sweep_supervised(
        u,
        cfg,
        &Supervisor::none(),
        None,
        None,
        || 0u64,
        CheckScratch::new,
        |acc, check, _, c, w| {
            let _ = for_each_observer(c, |phi| {
                for m in models {
                    *acc += w * m.contains_with(c, phi, check) as u64;
                }
                ControlFlow::Continue(())
            });
        },
    )
    .expect_complete("scalar")
}

fn lanes(u: &Universe, cfg: &SweepConfig, models: &[Model]) -> u64 {
    sweep_supervised(
        u,
        cfg,
        &Supervisor::none(),
        None,
        None,
        || 0u64,
        || (ObserverIndex::new(), LanePack::new(), LaneScratch::new()),
        |total, (index, pack, lanes), _, c, w| {
            index.prepare(c, SlotOrder::LocationMajor, pack);
            index.for_each_pack(pack, |pack| {
                let used = pack.used();
                for m in models {
                    *total += w * u64::from((m.contains_lanes(c, pack, lanes) & used).count_ones());
                }
            });
        },
    )
    .expect_complete("lanes")
}

#[test]
#[ignore]
fn per_model_timing() {
    let u = Universe::new(5, 1);
    let cfg = SweepConfig::serial().canonical(true);
    for m in [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww] {
        let t = Instant::now();
        let s = scalar(&u, &cfg, &[m]);
        let ts = t.elapsed();
        let t = Instant::now();
        let l = lanes(&u, &cfg, &[m]);
        let tl = t.elapsed();
        assert_eq!(s, l);
        println!(
            "{:<4} scalar {:>8.2?}  lane {:>8.2?}  speedup {:.2}x",
            m.name(),
            ts,
            tl,
            ts.as_secs_f64() / tl.as_secs_f64()
        );
    }
    // Shared enumeration cost vs pure pack overhead: no models at all.
    let t = Instant::now();
    let s = scalar(&u, &cfg, &[]);
    println!("enumeration-only:   {:?} (sum {s})", t.elapsed());
    let t = Instant::now();
    let l = lanes(&u, &cfg, &[]);
    println!("pack-only overhead: {:?} (sum {l})", t.elapsed());
    let all = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let t = Instant::now();
    let s = scalar(&u, &cfg, &all);
    let ts = t.elapsed();
    let t = Instant::now();
    let l = lanes(&u, &cfg, &all);
    let tl = t.elapsed();
    assert_eq!(s, l);
    println!(
        "ALL  scalar {ts:>8.2?}  lane {tl:>8.2?}  speedup {:.2}x",
        ts.as_secs_f64() / tl.as_secs_f64()
    );
}
