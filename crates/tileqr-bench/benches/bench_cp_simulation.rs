//! Micro-benchmarks of the critical-path simulator itself: DAG construction
//! and unbounded/bounded scheduling for the grid sizes used in the paper's
//! Tables 4–5 (up to 128 × 128 tiles), plus the dynamic Asap co-simulation.

use tileqr_bench::microbench::{run, write_json, Sample};
use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::{TaskDag, TaskKind};
use tileqr_core::sim::{simulate_asap, simulate_bounded, simulate_unbounded};
use tileqr_core::KernelFamily;

fn bench_dag_build(samples: &mut Vec<Sample>) {
    for &(p, q) in &[(40usize, 40usize), (64, 32), (128, 16)] {
        let list = Algorithm::Greedy.elimination_list(p, q);
        let name = format!("dag_build_{p}x{q}");
        run(samples, "dag_build_greedy_tt", &name, p, None, || {
            std::hint::black_box(TaskDag::build(&list, KernelFamily::TT));
        });
    }
}

fn bench_unbounded_schedule(samples: &mut Vec<Sample>) {
    for &(p, q) in &[(40usize, 40usize), (128, 32)] {
        let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
        let name = format!("unbounded_{p}x{q}");
        run(samples, "simulate_unbounded", &name, p, None, || {
            std::hint::black_box(simulate_unbounded(&dag));
        });
    }
}

fn bench_bounded_schedule(samples: &mut Vec<Sample>) {
    let dag = TaskDag::build(
        &Algorithm::Greedy.elimination_list(40, 20),
        KernelFamily::TT,
    );
    for procs in [8usize, 48] {
        let name = format!("bounded_40x20_p{procs}");
        run(samples, "simulate_bounded", &name, procs, None, || {
            std::hint::black_box(simulate_bounded(&dag, procs, TaskKind::weight));
        });
    }
}

fn bench_asap_cosimulation(samples: &mut Vec<Sample>) {
    for &(p, q) in &[(32usize, 16usize), (64, 32)] {
        let name = format!("asap_{p}x{q}");
        run(samples, "simulate_asap", &name, p, None, || {
            std::hint::black_box(simulate_asap(p, q));
        });
    }
}

fn main() {
    let mut samples = Vec::new();
    bench_dag_build(&mut samples);
    bench_unbounded_schedule(&mut samples);
    bench_bounded_schedule(&mut samples);
    bench_asap_cosimulation(&mut samples);
    write_json(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_cp_simulation.json"
        ),
        &samples,
    );
}
