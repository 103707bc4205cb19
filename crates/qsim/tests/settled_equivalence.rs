//! Settled-head equivalence suite.
//!
//! Every per-shot loop — the tableau loop, the hybrid handoff and the
//! amplitude loop — runs its program's RNG-free head once per shard and
//! starts each shot from a snapshot of it. The head draws nothing under
//! the frozen draw contracts, so settling it must not move a single
//! count. This suite pins that bit for bit: each settled run is compared
//! with a from-scratch replay that starts every shot from `|0…0⟩`
//! (`run_clifford_shot` on a fresh tableau, `run_compiled_shot` on a
//! fresh state vector, and the handoff rebuilt from both), under the
//! same shot split and shard seeds, at 1 and 3 shards.
//!
//! Each program also pins *where* its head stops, so every stop rule —
//! single- and multi-entry Pauli noise, readout errors, random
//! measurements, resets, post-selection, unsatisfied and satisfied
//! conditions — is known to be the one exercised.

use qcircuit::{library, Gate, QuantumCircuit};
use qnoise::{Kraus, NoiseModel, ReadoutError};
use qsim::{
    amplitude_snapshot_head, compile_with, run_clifford_sharded, run_clifford_shot,
    run_compiled_from, run_compiled_sharded, run_compiled_shot, shard_seed, Backend,
    CompileOptions, CompiledProgram, Counts, HybridBackend, PlanNode, SettledHead, SimError,
    StabilizerBackend, Tableau, SNAPSHOT_MAX_QUBITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 2] = [1, 3];
const SEEDS: [u64; 3] = [0, 7, 0xDEAD_BEEF];

/// Replays the sharding harness's shot split and shard seeds with a
/// per-shot oracle that builds every shot from scratch.
fn replay<F>(num_clbits: usize, shots: u64, seed: u64, threads: usize, mut shot: F) -> (Counts, u64)
where
    F: FnMut(&mut StdRng) -> Option<u64>,
{
    let threads = threads.min(shots.max(1) as usize).max(1);
    let mut counts = Counts::new(num_clbits);
    let mut discarded = 0u64;
    for t in 0..threads {
        let n = shots / threads as u64 + u64::from((t as u64) < shots % threads as u64);
        let s = if threads == 1 {
            seed
        } else {
            shard_seed(seed, t)
        };
        let mut rng = StdRng::seed_from_u64(s);
        for _ in 0..n {
            match shot(&mut rng) {
                Some(clbits) => counts.record(clbits, 1),
                None => discarded += 1,
            }
        }
    }
    (counts, discarded)
}

fn compile(circuit: &QuantumCircuit, noise: Option<&NoiseModel>) -> CompiledProgram {
    compile_with(circuit, noise, CompileOptions::default()).expect("compiles")
}

/// Checks the tableau loop against the `run_clifford_shot` oracle under
/// every seed of `seeds` and pins the settled head's length.
fn check_clifford(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    head: usize,
    shots: u64,
    seeds: &[u64],
) {
    let program = compile(circuit, noise);
    let clifford = program.clifford().expect("clifford-eligible");
    assert_eq!(SettledHead::settle(clifford).len(), head, "settled head");
    for &seed in seeds {
        for threads in THREADS {
            let settled = run_clifford_sharded(clifford, shots, seed, threads).unwrap();
            let oracle = replay(clifford.num_clbits(), shots, seed, threads, |rng| {
                let mut tableau = Tableau::new(clifford.num_qubits());
                run_clifford_shot(clifford, &mut tableau, rng)
            });
            assert_eq!(settled, oracle, "seed {seed}, threads {threads}");
        }
    }
}

/// Checks the amplitude loop against the `run_compiled_shot` oracle and
/// pins the snapshot decision.
fn check_amplitude(program: &CompiledProgram, head: Option<usize>, shots: u64) {
    assert_eq!(amplitude_snapshot_head(program), head, "settled head");
    for seed in SEEDS {
        for threads in THREADS {
            let settled = run_compiled_sharded(program, shots, seed, threads).unwrap();
            let oracle = replay(program.num_clbits(), shots, seed, threads, |rng| {
                run_compiled_shot(program, rng)
                    .unwrap()
                    .map(|record| record.clbits)
            });
            assert_eq!(settled, oracle, "seed {seed}, threads {threads}");
        }
    }
}

/// Checks the hybrid handoff against a per-shot rebuild of it: the
/// prefix from a fresh tableau, the one-`f64` marker, a fresh
/// extraction and the whole suffix. `fully_settled` pins whether the
/// head covers the whole prefix (extraction once per shard) or stops
/// inside it.
fn check_hybrid(circuit: &QuantumCircuit, fully_settled: bool, shots: u64) {
    let program = HybridBackend::ideal().compile(circuit).unwrap();
    let plan = program.hybrid().expect("hybrid plan");
    assert!(plan.profitable(), "the cost model must route the program");
    let head = SettledHead::settle(plan.prefix());
    assert_eq!(
        head.len() == plan.prefix().ops().len(),
        fully_settled,
        "head covers {} of {} prefix ops",
        head.len(),
        plan.prefix().ops().len()
    );
    for seed in SEEDS {
        for threads in THREADS {
            let settled = HybridBackend::ideal()
                .with_seed(seed)
                .with_threads(threads)
                .run_compiled(&program, shots)
                .unwrap();
            let oracle = replay(program.num_clbits(), shots, seed, threads, |rng| {
                let mut tableau = Tableau::new(program.num_qubits());
                let mut clbits = run_clifford_shot(plan.prefix(), &mut tableau, rng)?;
                let _marker: f64 = rng.gen();
                let mut state = tableau.to_statevector();
                run_compiled_from(plan.suffix(), 0, &mut state, &mut clbits, rng)
                    .unwrap()
                    .then_some(clbits)
            });
            assert_eq!(
                (settled.counts, settled.shots_discarded),
                oracle,
                "seed {seed}, threads {threads}"
            );
        }
    }
}

/// GHZ over qubits 0..4, an ancilla parity check on q4 (deterministic:
/// clbit 0 reads 0), then conditioned ops on both sides of the head: one
/// the head skips, one it runs, and one after the first random outcome.
fn mid_measure_clifford() -> QuantumCircuit {
    let mut c = QuantumCircuit::new(5, 5);
    c.h(0).unwrap();
    for q in 0..3 {
        c.cx(q, q + 1).unwrap();
    }
    c.cx(0, 4).unwrap();
    c.cx(1, 4).unwrap();
    c.measure(4, 0).unwrap(); // deterministic: settled, clbit 0 = 0
    c.gate_if(Gate::X, [3usize], 0, true).unwrap(); // unsatisfied: skipped
    c.gate_if(Gate::S, [2usize], 0, false).unwrap(); // satisfied: applied
    c.measure(0, 1).unwrap(); // random: the head stops here
    c.gate_if(Gate::X, [1usize], 1, true).unwrap();
    c.measure(1, 2).unwrap();
    c.measure(2, 3).unwrap();
    c.measure(3, 4).unwrap();
    c
}

#[test]
fn deterministic_measurements_and_conditions_settle() {
    // h + 3 cx + 2 cx + measure + 2 conditioned ops.
    check_clifford(&mid_measure_clifford(), None, 9, 300, &SEEDS);
}

#[test]
fn single_entry_pauli_noise_stops_the_head() {
    // Every X is followed by a certain bit flip: a one-entry table,
    // which draws nothing but still ends the head.
    let mut noise = NoiseModel::new();
    noise.with_gate_error("x", Kraus::bit_flip(1.0).unwrap());
    let mut c = QuantumCircuit::new(3, 3);
    c.h(0).unwrap();
    c.cx(0, 1).unwrap();
    c.x(2).unwrap();
    c.cx(2, 1).unwrap();
    c.measure_all();
    let program = compile(&c, Some(&noise));
    let noisy = &program.clifford().unwrap().ops()[2];
    assert_eq!(noisy.noise.len(), 1);
    assert_eq!(noisy.noise[0].table.len(), 1, "single-entry table");
    check_clifford(&c, Some(&noise), 2, 300, &SEEDS);
}

#[test]
fn multi_entry_pauli_noise_stops_the_head() {
    let mut noise = NoiseModel::new();
    noise.with_gate_error("s", Kraus::depolarizing(0.3).unwrap());
    let mut c = QuantumCircuit::new(3, 3);
    c.h(0).unwrap();
    c.cx(0, 1).unwrap();
    c.cx(1, 2).unwrap();
    c.s(1).unwrap();
    c.h(1).unwrap();
    c.measure_all();
    check_clifford(&c, Some(&noise), 3, 300, &SEEDS);
}

#[test]
fn readout_error_stops_the_head_at_a_deterministic_measurement() {
    let mut noise = NoiseModel::new();
    noise.with_readout_error(0, ReadoutError::symmetric(0.2).unwrap());
    let mut c = QuantumCircuit::new(3, 3);
    c.x(0).unwrap();
    c.h(1).unwrap();
    c.cx(1, 2).unwrap();
    c.measure(0, 0).unwrap(); // deterministic, but the readout draws
    c.measure(1, 1).unwrap();
    c.measure(2, 2).unwrap();
    check_clifford(&c, Some(&noise), 3, 300, &SEEDS);
}

#[test]
fn noise_on_the_first_op_leaves_the_head_empty() {
    let mut noise = NoiseModel::new();
    noise.with_default_1q(Kraus::depolarizing(0.1).unwrap());
    let mut c = library::ghz(3);
    c.measure_all();
    check_clifford(&c, Some(&noise), 0, 300, &SEEDS);
}

#[test]
fn reset_stops_the_head() {
    let mut c = QuantumCircuit::new(2, 2);
    c.x(0).unwrap();
    c.cx(0, 1).unwrap();
    c.reset(0).unwrap();
    c.h(0).unwrap();
    c.measure_all();
    check_clifford(&c, None, 2, 300, &SEEDS);
}

#[test]
fn post_selection_stops_the_head() {
    let mut c = QuantumCircuit::new(3, 2);
    c.h(0).unwrap();
    c.cx(0, 1).unwrap();
    c.post_select(1, true).unwrap(); // random: half the shots survive
    c.cx(1, 2).unwrap();
    c.measure(0, 0).unwrap();
    c.measure(2, 1).unwrap();
    check_clifford(&c, None, 2, 300, &SEEDS);
}

#[test]
fn a_head_whose_shots_are_all_discarded_discards_them_all() {
    let mut c = QuantumCircuit::new(2, 1);
    c.x(0).unwrap();
    c.cx(0, 1).unwrap();
    c.post_select(1, false).unwrap(); // q1 is |1⟩: every shot fails
    c.measure(0, 0).unwrap();
    check_clifford(&c, None, 2, 100, &SEEDS);
    let err = StabilizerBackend::ideal().run(&c, 100).unwrap_err();
    assert!(matches!(err, SimError::AllShotsDiscarded), "{err:?}");
}

#[test]
fn ghz_1024_settles_its_whole_preparation() {
    // The preparation (h + 1023 cx) is the head; each shot resumes at
    // the first, random, end-qubit measurement.
    let n = 1024;
    let mut c = library::ghz(n);
    c.add_clbit();
    c.add_clbit();
    c.measure(0, 0).unwrap();
    c.measure(n - 1, 1).unwrap();
    // One seed: the from-scratch oracle replays the whole preparation
    // every shot.
    check_clifford(&c, None, n, 24, &[17]);
}

/// Eight qubits of Clifford+T layers wide enough to batch, a
/// mid-circuit measurement, then conditioned and unconditioned tail.
fn mid_measure_amplitude() -> QuantumCircuit {
    let n = 8;
    let mut c = QuantumCircuit::new(n, n);
    for round in 0..3 {
        for q in 0..n {
            c.h(q).unwrap();
            c.rz(0.1 + 0.2 * (q + round) as f64, q).unwrap();
        }
        for q in (round % 2..n - 1).step_by(2) {
            c.cx(q, q + 1).unwrap();
        }
    }
    c.measure(0, 0).unwrap();
    c.gate_if(Gate::X, [1usize], 0, true).unwrap();
    for q in 1..n {
        c.ry(0.3, q).unwrap();
    }
    for q in 1..n {
        c.measure(q, q).unwrap();
    }
    c
}

/// Index of the first op that is not an unconditioned, noise-free
/// unitary.
fn first_unsettled(program: &CompiledProgram) -> usize {
    program
        .ops()
        .iter()
        .position(|op| !op.kind.is_unitary() || op.condition.is_some() || !op.noise.is_empty())
        .expect("program has an unsettled op")
}

#[test]
fn amplitude_head_settles_through_batched_kernels() {
    let program = compile(&mid_measure_amplitude(), None);
    assert!(program.batch_passes() > 0, "the head must include batches");
    let head = first_unsettled(&program);
    check_amplitude(&program, Some(head), 300);
}

#[test]
fn amplitude_head_resumes_inside_a_sequential_node() {
    // Two disjoint H gates batch; the swap lowers to a dense unitary,
    // which never batches, so the sequential node holding it also holds
    // the measurement after it and shots resume mid-node.
    let mut c = QuantumCircuit::new(3, 3);
    c.h(0).unwrap();
    c.h(1).unwrap();
    c.swap(0, 2).unwrap();
    c.cx(1, 2).unwrap();
    c.measure(2, 0).unwrap();
    c.h(2).unwrap();
    c.measure(0, 1).unwrap();
    c.measure(2, 2).unwrap();
    let program = compile(&c, None);
    let head = first_unsettled(&program);
    let plan = program.batch_plan().expect("the H pair batches");
    assert!(
        plan.nodes().iter().any(|node| {
            let (start, end) = node.range();
            matches!(node, PlanNode::Sequential { .. }) && start < head && head < end
        }),
        "a sequential node must straddle the head: {:?}",
        plan.nodes()
    );
    check_amplitude(&program, Some(head), 300);
}

#[test]
fn amplitude_head_stops_at_noise_and_readout() {
    let mut noise = NoiseModel::new();
    noise
        .with_gate_error("x", Kraus::bit_flip(0.25).unwrap())
        .with_gate_error("s", Kraus::bit_flip(1.0).unwrap())
        .with_readout_error(2, ReadoutError::symmetric(0.1).unwrap());
    let mut c = QuantumCircuit::new(4, 4);
    for q in 0..4 {
        c.h(q).unwrap();
    }
    c.cx(0, 1).unwrap();
    c.cx(2, 3).unwrap();
    c.x(1).unwrap(); // multi-entry noise: the head stops here
    c.s(2).unwrap(); // single-entry noise
    c.cx(1, 2).unwrap();
    c.measure_all();
    let program = compile(&c, Some(&noise));
    let head = first_unsettled(&program);
    assert!(head > 0);
    check_amplitude(&program, Some(head), 300);
}

#[test]
fn amplitude_head_is_empty_with_noise_on_the_first_op() {
    let mut noise = NoiseModel::new();
    noise.with_default_1q(Kraus::depolarizing(0.1).unwrap());
    let mut c = library::ghz(3);
    c.measure_all();
    check_amplitude(&compile(&c, Some(&noise)), None, 300);
}

#[test]
fn amplitude_head_is_empty_with_a_conditioned_first_op() {
    let mut c = QuantumCircuit::new(2, 2);
    c.gate_if(Gate::X, [0usize], 1, false).unwrap();
    c.h(1).unwrap();
    c.measure_all();
    check_amplitude(&compile(&c, None), None, 300);
}

#[test]
fn amplitude_head_stops_at_reset_and_post_selection() {
    let mut c = QuantumCircuit::new(3, 2);
    c.h(0).unwrap();
    c.cx(0, 1).unwrap();
    c.t(1).unwrap();
    c.reset(0).unwrap();
    c.h(0).unwrap();
    c.post_select(1, true).unwrap();
    c.cx(1, 2).unwrap();
    c.measure(0, 0).unwrap();
    c.measure(2, 1).unwrap();
    let program = compile(&c, None);
    let head = first_unsettled(&program);
    check_amplitude(&program, Some(head), 300);
}

#[test]
fn wide_programs_hold_no_amplitude_snapshot() {
    // Compiling allocates no amplitudes, so both widths are cheap to
    // check; only the snapshot decision differs.
    for (n, held) in [
        (SNAPSHOT_MAX_QUBITS, true),
        (SNAPSHOT_MAX_QUBITS + 1, false),
    ] {
        let mut c = QuantumCircuit::new(n, 1);
        for q in 0..n {
            c.h(q).unwrap();
        }
        c.measure(0, 0).unwrap();
        c.x(0).unwrap();
        c.measure(0, 0).unwrap();
        let program = compile(&c, None);
        assert!(program.fast_path().is_none());
        assert_eq!(
            amplitude_snapshot_head(&program).is_some(),
            held,
            "{n} qubits"
        );
    }
}

/// A ten-qubit Clifford scramble with an ancilla parity check on a GHZ
/// pair, an optional random measurement before the island, then a T
/// island and an amplitude suffix wide enough to batch.
fn hybrid_circuit(random_in_prefix: bool) -> QuantumCircuit {
    let n = 10;
    let mut c = QuantumCircuit::new(n, 4);
    for _ in 0..3 {
        for q in 0..n - 2 {
            c.h(q).unwrap();
            c.s(q).unwrap();
        }
        for q in 0..n - 3 {
            c.cx(q, q + 1).unwrap();
        }
    }
    // Entangle q8 with q9 and undo it: q8 is back in |0⟩, so its
    // measurement is deterministic and settles.
    c.h(8).unwrap();
    c.cx(8, 9).unwrap();
    c.cx(8, 9).unwrap();
    c.h(8).unwrap();
    c.measure(8, 0).unwrap();
    c.gate_if(Gate::X, [9usize], 0, true).unwrap(); // skipped
    if random_in_prefix {
        c.h(9).unwrap();
        c.measure(9, 1).unwrap(); // random: the head stops here
        c.gate_if(Gate::Z, [0usize], 1, true).unwrap();
    }
    c.t(0).unwrap(); // the island
    for q in 0..n {
        c.rx(0.2 + 0.1 * q as f64, q).unwrap();
    }
    c.gate_if(Gate::X, [2usize], 0, false).unwrap();
    c.h(0).unwrap();
    c.measure(0, 2).unwrap();
    c.measure(1, 3).unwrap();
    c
}

#[test]
fn hybrid_fully_settled_prefix_extracts_once_per_shard() {
    let c = hybrid_circuit(false);
    let program = HybridBackend::ideal().compile(&c).unwrap();
    let suffix = program.hybrid().unwrap().suffix();
    assert!(
        suffix.batch_passes() > 0,
        "the suffix head must include batches"
    );
    check_hybrid(&c, true, 300);
}

#[test]
fn hybrid_partly_settled_prefix_extracts_per_shot() {
    check_hybrid(&hybrid_circuit(true), false, 300);
}
