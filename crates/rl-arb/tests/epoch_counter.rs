//! The process-wide epoch counter, in a test binary of its own: any other
//! test that trains in the same process (the library's unit tests run
//! several, in parallel) would add its epochs to the count.

use rl_arb::{training_epochs, SyntheticEnv, TrainSpec, Trainer};

#[test]
fn trainer_counts_epochs_globally() {
    let spec = TrainSpec {
        epochs: 10,
        cycles_per_epoch: 400,
        injection_rate: 0.25,
        ..TrainSpec::synthetic_4x4(3)
    };
    let before = training_epochs();
    let out = Trainer::new(spec.agent.clone()).run(&mut SyntheticEnv::new(&spec));
    assert_eq!(out.curve.len(), 10);
    assert_eq!(training_epochs() - before, 10);
    assert_eq!(out.converged, None, "no early stop armed");
}
