//! Tier-1 executes the chaos harness: the honest control and the four
//! composed plans of `adlp::sim::chaos::plans`, one seed, in-process link.
//! `run_chaos` judges every run by the outcome oracle (DESIGN.md "Chaos
//! plans and the outcome oracle"); the full table × seeds × links lives in
//! `crates/sim/tests/chaos.rs`.

use adlp::sim::chaos::{plan, run_chaos, ChaosLink, SEEDS};

fn passes_the_oracle(name: &str) {
    if let Err(failure) = run_chaos(&plan(name, SEEDS[0], ChaosLink::Inproc)) {
        panic!("{failure}");
    }
}

#[test]
fn honest_control() {
    passes_the_oracle("honest");
}

#[test]
fn equivocator_during_witness_partition() {
    passes_the_oracle("equivocator_during_witness_partition");
}

#[test]
fn power_cut_while_split_view_is_gossiped() {
    passes_the_oracle("power_cut_while_split_view_is_gossiped");
}

#[test]
fn catch_up_across_a_seal() {
    passes_the_oracle("catch_up_across_a_seal");
}

#[test]
fn device_dies_then_heals() {
    passes_the_oracle("device_dies_then_heals");
}
