//! Differential testing of the position-indexed HLS schedulers against the
//! retained value-keyed references (`sched::reference`,
//! `pipeline::reference`), plus a pinned digest of whole `compile()` output.
//!
//! The contract: for every block and every natural loop, under any budget
//! that gives each used class at least one unit, `list_schedule` and
//! `pipeline_loop` return exactly what the references return — the same
//! start of every op, length, II, depth, `res_mii` and error. The suite
//! checks
//!
//! * every thread kernel of `default_suite(s)` and `small_suite(s)` for
//!   `s` in 1..=3, plus `chase_stream_kernel()`, as built and as optimized,
//!   under three budgets;
//! * property-generated two-block loops (a compare-and-branch header and a
//!   body of random ALU/MUL/DIV/memory ops over loop-carried phis) under
//!   budgets of 1–4 units per class.
//!
//! Binding and the compile driver keep no reference; the digest of every
//! `CompiledKernel` field over the same kernels pins them (and the
//! schedulers) to the values recorded before the rewrite.

use proptest::prelude::*;
use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::cfg::Cfg;
use svmsyn_hls::fsmd::{compile, CompiledKernel, HlsConfig};
use svmsyn_hls::ir::{BinOp, CmpOp, Kernel, Value, Width};
use svmsyn_hls::opt::optimize;
use svmsyn_hls::pipeline::{self, pipeline_loop, PipelineError};
use svmsyn_hls::resource::FuBudget;
use svmsyn_hls::sched::{self, list_schedule};
use svmsyn_snap::{fnv1a, SnapWriter};
use svmsyn_workloads::{chase::chase_stream_kernel, default_suite, small_suite};

/// Every distinct thread kernel of the suites, as built.
fn suite_kernels() -> Vec<Kernel> {
    let mut kernels: Vec<Kernel> = Vec::new();
    let suites = (1..=3).flat_map(|s| default_suite(s).into_iter().chain(small_suite(s)));
    let built = suites
        .flat_map(|w| w.app.threads.into_iter().map(|t| t.kernel))
        .chain([chase_stream_kernel()]);
    for k in built {
        if !kernels.contains(&k) {
            kernels.push(k);
        }
    }
    kernels
}

/// The default budget, one unit of everything, and a wide one.
fn budgets() -> [FuBudget; 3] {
    [
        FuBudget::default(),
        FuBudget {
            alu: 1,
            mul: 1,
            div: 1,
            mem_ports: 1,
        },
        FuBudget {
            alu: 4,
            mul: 2,
            div: 2,
            mem_ports: 2,
        },
    ]
}

/// Asserts both schedulers agree with their references on every block and
/// natural loop of `kernel`; returns how many loops pipelined.
fn assert_schedules_match(kernel: &Kernel, budget: &FuBudget) -> usize {
    for b in kernel.block_ids() {
        assert_eq!(
            list_schedule(kernel, b, budget),
            sched::reference::list_schedule(kernel, b, budget),
            "{}: block {b} under {budget:?}",
            kernel.name
        );
    }
    let mut pipelined = 0;
    for lp in Cfg::new(kernel).natural_loops() {
        let got = pipeline_loop(kernel, &lp, budget);
        assert_eq!(
            got,
            pipeline::reference::pipeline_loop(kernel, &lp, budget),
            "{}: loop at {} under {budget:?}",
            kernel.name,
            lp.header
        );
        pipelined += got.is_ok() as usize;
    }
    pipelined
}

#[test]
fn suite_kernels_schedule_like_the_references() {
    let mut pipelined = 0;
    for kernel in suite_kernels() {
        let mut optimized = kernel.clone();
        optimize(&mut optimized);
        for budget in budgets() {
            pipelined += assert_schedules_match(&kernel, &budget);
            pipelined += assert_schedules_match(&optimized, &budget);
        }
    }
    assert!(
        pipelined > 0,
        "no suite loop pipelined: the check is vacuous"
    );
}

// ---------------------------------------------------------------------------
// The pinned digest of compile().
// ---------------------------------------------------------------------------

/// Writes every field of `ck` with hash maps sorted by key.
fn encode_compiled(ck: &CompiledKernel, w: &mut SnapWriter) {
    fn sorted_starts(starts: &std::collections::HashMap<Value, u32>, w: &mut SnapWriter) {
        let mut pairs: Vec<(Value, u32)> = starts.iter().map(|(&v, &s)| (v, s)).collect();
        pairs.sort_unstable();
        w.put_usize(pairs.len());
        for (v, s) in pairs {
            w.put_u32(v.0);
            w.put_u32(s);
        }
    }
    ck.kernel.encode_canonical(w);
    w.put_str(&format!("{:?}", ck.decoded));
    w.put_usize(ck.enter_costs.len());
    for &c in ck.enter_costs.iter() {
        w.put_u64(c);
    }
    w.put_usize(ck.schedules.len());
    for s in &ck.schedules {
        w.put_u32(s.length);
        sorted_starts(&s.start, w);
    }
    let mut pipelines: Vec<_> = ck.pipelines.iter().collect();
    pipelines.sort_unstable_by_key(|(&header, _)| header);
    w.put_usize(pipelines.len());
    for (header, p) in pipelines {
        w.put_u32(header.0);
        w.put_u32(p.header.0);
        w.put_usize(p.blocks.len());
        for b in &p.blocks {
            w.put_u32(b.0);
        }
        w.put_u32(p.ii);
        w.put_u32(p.depth);
        w.put_u32(p.res_mii);
        sorted_starts(&p.starts, w);
    }
    let b = &ck.binding;
    for n in [
        b.alu_units,
        b.mul_units,
        b.div_units,
        b.mem_ports,
        b.registers,
        b.mux_inputs,
    ] {
        w.put_usize(n);
    }
    let r = &ck.resources;
    for n in [r.lut, r.ff, r.dsp, r.bram36] {
        w.put_u64(n);
    }
    w.put_f64(ck.fmax_mhz);
    w.put_u32(ck.states);
    let p = &ck.pass_stats;
    for n in [p.folded, p.cse_removed, p.dce_removed] {
        w.put_u64(n);
    }
}

/// FNV-1a over the encoded `compile()` output of every suite kernel, with
/// the optimizer on and off, under every budget of [`budgets`].
///
/// Recorded before the schedulers were rewritten to index by position.
/// Only a change that means to alter HLS results may re-record it.
const COMPILE_DIGEST: u64 = 0xd79d_1e65_7f04_e2de;

#[test]
fn compile_output_matches_the_pinned_digest() {
    let mut w = SnapWriter::new();
    for kernel in suite_kernels() {
        for optimize in [true, false] {
            for fu in budgets() {
                let cfg = HlsConfig {
                    fu,
                    pipeline_loops: true,
                    optimize,
                };
                encode_compiled(&compile(&kernel, &cfg), &mut w);
            }
        }
    }
    let digest = fnv1a(&w.into_bytes());
    assert_eq!(
        digest, COMPILE_DIGEST,
        "compile() output changed: digest {digest:#018x}"
    );
}

// ---------------------------------------------------------------------------
// Property-generated two-block loops.
// ---------------------------------------------------------------------------

/// One body op: `(kind, lhs pick, rhs pick)`.
type BodyOp = (u8, usize, usize);

/// Picks an operand: mostly the newest value (so chains through the loop
/// form), otherwise any value in the pool.
fn pick(pool: &[Value], x: usize) -> Value {
    if x < 24 {
        pool[pool.len() - 1]
    } else {
        pool[x % pool.len()]
    }
}

/// `kernel(base, n)`: `entry -> header <-> body`, `header -> exit`. The
/// header holds the counter and one phi per `carries` entry, compares and
/// branches; the body runs `ops` over the phis and loop-invariant values,
/// and feeds each phi a body value picked by its `carries` entry.
fn two_block_loop(ops: &[BodyOp], carries: &[usize]) -> Kernel {
    let mut b = KernelBuilder::new("gen", 2);
    let entry = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let base = b.arg(0);
    let n = b.arg(1);
    let zero = b.constant(0);
    let one = b.constant(1);
    b.jump(header);

    b.switch_to(header);
    let i = b.phi();
    let accs: Vec<Value> = carries.iter().map(|_| b.phi()).collect();
    let cont = b.cmp(CmpOp::Lt, i, n);
    b.branch(cont, body, exit);

    b.switch_to(body);
    let mut pool = vec![base, n, one, i];
    pool.extend(&accs);
    for &(kind, x, y) in ops {
        let (l, r) = (pick(&pool, x), pick(&pool, y));
        let v = match kind {
            0 => b.bin(BinOp::Add, l, r),
            1 => b.bin(BinOp::Xor, l, r),
            2 => b.bin(BinOp::Mul, l, r),
            3 => b.bin(BinOp::Div, l, r),
            4 => b.load(l, Width::W32),
            _ => {
                b.store(l, r, Width::W32);
                continue;
            }
        };
        pool.push(v);
    }
    let i2 = b.bin(BinOp::Add, i, one);
    b.jump(header);

    b.switch_to(exit);
    b.ret(accs.first().copied());
    b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
    for (&acc, &c) in accs.iter().zip(carries) {
        b.set_phi_incoming(acc, &[(entry, zero), (body, pick(&pool, c))]);
    }
    b.finish().expect("generated loops verify")
}

/// Body ops for [`two_block_loop`].
fn body_ops() -> impl Strategy<Value = Vec<BodyOp>> {
    prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..25)
}

/// Loop-carried phi picks for [`two_block_loop`].
fn carries() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 1..4)
}

/// Units per class: `(alu, mul, div, mem_ports)`, 1–4 each.
fn units() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..5, 1usize..5, 1usize..5, 1usize..5)
}

fn budget_of((alu, mul, div, mem_ports): (usize, usize, usize, usize)) -> FuBudget {
    FuBudget {
        alu,
        mul,
        div,
        mem_ports,
    }
}

proptest! {
    /// Generated loops pipeline (or fail to) exactly like the reference,
    /// and their blocks list-schedule exactly like the reference.
    #[test]
    fn generated_loops_schedule_like_the_references(
        ops in body_ops(),
        carries in carries(),
        units in units(),
    ) {
        let kernel = two_block_loop(&ops, &carries);
        let budget = budget_of(units);
        for b in kernel.block_ids() {
            prop_assert_eq!(
                list_schedule(&kernel, b, &budget),
                sched::reference::list_schedule(&kernel, b, &budget)
            );
        }
        let loops = Cfg::new(&kernel).natural_loops();
        prop_assert_eq!(loops.len(), 1);
        prop_assert_eq!(
            pipeline_loop(&kernel, &loops[0], &budget),
            pipeline::reference::pipeline_loop(&kernel, &loops[0], &budget)
        );
    }
}

/// The generator reaches every pipelining outcome the property compares:
/// II at the resource bound, II above it (recurrences and modulo
/// conflicts), and no feasible II.
#[test]
fn generated_loops_reach_every_outcome() {
    let (ops, carries, units) = (body_ops(), carries(), units());
    let mut rng = Rng::new(0x100b5);
    let (mut at_bound, mut above, mut infeasible) = (0, 0, 0);
    for _ in 0..512 {
        let kernel = two_block_loop(&ops.generate(&mut rng), &carries.generate(&mut rng));
        let budget = budget_of(units.generate(&mut rng));
        let lp = &Cfg::new(&kernel).natural_loops()[0];
        match pipeline_loop(&kernel, lp, &budget) {
            Ok(p) if p.ii == p.res_mii => at_bound += 1,
            Ok(_) => above += 1,
            Err(PipelineError::NoFeasibleIi { .. }) => infeasible += 1,
            Err(e) => panic!("two-block loop rejected: {e}"),
        }
    }
    assert!(
        at_bound > 0 && above > 0 && infeasible > 0,
        "outcomes: {at_bound} at res_mii, {above} above, {infeasible} infeasible"
    );
}

// ---------------------------------------------------------------------------
// Zero-unit classes.
// ---------------------------------------------------------------------------

#[test]
#[should_panic(expected = "FuBudget has 0 Div units")]
fn zero_dividers_under_a_divide_panic() {
    let mut b = KernelBuilder::new("div", 2);
    let x = b.arg(0);
    let y = b.arg(1);
    let q = b.bin(BinOp::Div, x, y);
    b.ret(Some(q));
    let kernel = b.finish().unwrap();
    compile(
        &kernel,
        &HlsConfig {
            fu: FuBudget {
                div: 0,
                ..FuBudget::default()
            },
            ..HlsConfig::default()
        },
    );
}

#[test]
#[should_panic(expected = "FuBudget has 0 Mem units")]
fn zero_memory_ports_under_a_loop_of_loads_panic() {
    let kernel = svmsyn_workloads::streaming::vecadd_kernel();
    compile(
        &kernel,
        &HlsConfig {
            fu: FuBudget {
                mem_ports: 0,
                ..FuBudget::default()
            },
            ..HlsConfig::default()
        },
    );
}

#[test]
fn zero_units_of_an_unused_class_compile() {
    let kernel = svmsyn_workloads::streaming::vecadd_kernel();
    let no_div = HlsConfig {
        fu: FuBudget {
            div: 0,
            ..FuBudget::default()
        },
        ..HlsConfig::default()
    };
    let ck = compile(&kernel, &no_div);
    let reference = compile(&kernel, &HlsConfig::default());
    assert_eq!(ck.binding.div_units, 0);
    assert_eq!(ck.states, reference.states);
    assert_eq!(ck.schedules, reference.schedules);
    assert_eq!(ck.pipelines, reference.pipelines);
}
