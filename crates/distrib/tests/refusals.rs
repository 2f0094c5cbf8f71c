//! Every deployment the engine cannot run is refused at construction (or
//! at the recovery call), each with the `EngineError` variant naming why.

use decs_chronos::Granularity;
use decs_distrib::{Ablation, Durability, Engine, EngineConfig, EngineError};
use decs_simnet::{Scenario, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E, SnoopError};
use std::path::PathBuf;

/// Replica peer sets are `u64` bitmasks.
const MAX_REPLICAS: usize = 64;

fn scenario() -> Scenario {
    ScenarioBuilder::new(2, 1)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

fn seq(name: &str) -> (&str, E, Context) {
    (name, E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
}

fn build(
    config: EngineConfig,
    ablation: Ablation,
    local: &[(&str, E, Context)],
) -> Result<Engine, EngineError> {
    Engine::ablated(
        &scenario(),
        config,
        ablation,
        &["A", "B"],
        local,
        &[seq("X")],
    )
}

fn replicas(n: usize) -> EngineConfig {
    EngineConfig {
        coordinator_replicas: n,
        ..EngineConfig::default()
    }
}

fn unsupported(r: Result<Engine, EngineError>) -> bool {
    matches!(r, Err(EngineError::Unsupported(_)))
}

fn tmp(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("decs-refusals-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn unsupported_deployments_are_refused() {
    let plain = Ablation::default();
    for n in [1, 2, MAX_REPLICAS] {
        assert!(build(replicas(n), plain, &[]).is_ok(), "{n} replicas");
    }
    for n in [0, MAX_REPLICAS + 1] {
        assert!(unsupported(build(replicas(n), plain, &[])), "{n} replicas");
    }
    // Refused before the directory is ever created.
    let dir = tmp("never-created");
    let site_durable = EngineConfig {
        site_durability: Some(dir.clone()),
        ..replicas(2)
    };
    assert!(unsupported(build(site_durable, plain, &[])));
    assert!(!dir.exists());
    assert!(unsupported(build(replicas(2), plain, &[seq("L")])));
    let on_arrival = Ablation {
        release_on_arrival: true,
        ..plain
    };
    assert!(unsupported(build(replicas(2), on_arrival, &[])));
    assert!(build(replicas(1), on_arrival, &[seq("L")]).is_ok());
}

#[test]
fn recovery_of_the_wrong_node_kind_is_refused() {
    let plain = Ablation::default();
    let mut classic = build(replicas(1), plain, &[]).unwrap();
    assert!(matches!(
        classic.crash_and_recover_replica(0),
        Err(EngineError::Unsupported(_))
    ));
    let mut partitioned = build(replicas(2), plain, &[]).unwrap();
    assert!(matches!(
        partitioned.crash_and_recover_coordinator(),
        Err(EngineError::Unsupported(_))
    ));
    // Partitioned, but without durability.
    assert!(matches!(
        partitioned.crash_and_recover_replica(0),
        Err(EngineError::Unsupported(_))
    ));
}

#[test]
fn bad_definitions_and_unusable_directories_have_their_own_variants() {
    let plain = Ablation::default();
    let unknown = [("L", E::prim("NOPE"), Context::Chronicle)];
    assert!(matches!(
        build(replicas(1), plain, &unknown),
        Err(EngineError::Definition(SnoopError::UnknownEvent(_)))
    ));
    // A regular file where the WAL directory should be.
    let file = tmp("file");
    std::fs::write(&file, b"not a directory").unwrap();
    let durable = EngineConfig {
        durability: Some(Durability {
            dir: file.join("wal"),
            snapshot_interval: 8,
        }),
        ..EngineConfig::default()
    };
    assert!(matches!(
        build(durable, plain, &[]),
        Err(EngineError::Io(_))
    ));
    let _ = std::fs::remove_file(&file);
}
