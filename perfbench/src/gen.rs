//! Seeded input generators for the four workloads. The same seed gives the
//! same inputs; the program under test receives only what these return.

use svmsyn::app::{ApplicationBuilder, ArgSpec};
use svmsyn::platform::Platform;
use svmsyn_sim::Xoshiro256ss;
use svmsyn_workloads::chase::{chase, chase_data, chase_stream_kernel};
use svmsyn_workloads::common::u32s_to_bytes;
use svmsyn_workloads::histogram::histogram;
use svmsyn_workloads::matmul::matmul;
use svmsyn_workloads::oesort::oesort;
use svmsyn_workloads::sobel::sobel;
use svmsyn_workloads::spmv::spmv;
use svmsyn_workloads::streaming::vecadd;
use svmsyn_workloads::{default_suite, Workload};

/// `suite_hwsw`: the eight-kernel default suite.
pub fn suite(seed: u64) -> Vec<Workload> {
    default_suite(seed)
}

/// `pressure`: a streaming and a pointer-chasing kernel, both of which
/// overflow the frame budget of [`pressure_platform`].
pub fn pressure(seed: u64) -> Vec<Workload> {
    vec![vecadd(2048, seed), chase(4096, 8192, seed)]
}

/// The default platform with the OS frame pool capped at four frames.
pub fn pressure_platform() -> Platform {
    let mut p = Platform::default();
    p.os.frame_budget = Some(4);
    p
}

/// `fig7_sweep`: the six-thread mixed application of Fig. 7 (vecadd,
/// matmul, sobel, histogram, spmv, oesort), each part seeded from `seed`.
/// The expected outputs of every part are kept, with buffer indices
/// shifted like the threads' arguments, so any placement can be verified.
pub fn fig7_mixed(seed: u64) -> Workload {
    let s = |k: u64| seed.wrapping_mul(8).wrapping_add(k);
    let parts = [
        vecadd(2048, s(1)),
        matmul(16, s(2)),
        sobel(48, 32, s(3)),
        histogram(2048, s(4)),
        spmv(256, 6, s(5)),
        oesort(96, s(6)),
    ];
    let mut builder = ApplicationBuilder::new("mixed");
    let mut expected = Vec::new();
    let mut base = 0usize;
    let mut thread = 0usize;
    for part in &parts {
        for b in &part.app.buffers {
            builder = builder.buffer(b.name.clone(), b.len, b.init.clone(), b.populate);
        }
        for t in &part.app.threads {
            let args = t
                .args
                .iter()
                .map(|a| match a {
                    ArgSpec::Buffer(i, off) => ArgSpec::Buffer(i + base, *off),
                    ArgSpec::Value(v) => ArgSpec::Value(*v),
                })
                .collect();
            builder = builder.thread(format!("t{thread}"), t.kernel.clone(), args, true);
            thread += 1;
        }
        expected.extend(part.expected.iter().map(|(i, e)| (i + base, e.clone())));
        base += part.app.buffers.len();
    }
    Workload {
        name: "mixed".into(),
        app: builder.build().expect("mixed app is valid"),
        expected,
    }
}

/// The Fig. 7 platform: a Zynq-7010-class fabric, so all-hardware does not
/// fit and the sweep has infeasible points.
pub fn fig7_platform() -> Platform {
    Platform::small()
}

/// `sharded_x2`: two independent chase+stream threads over disjoint
/// buffers. Thread `t` chases its own 2048-node ring while streaming
/// `c_t[i] = a_t[i] + b_t[i]` for 8192 elements.
pub fn chase_stream_x2(seed: u64) -> Workload {
    const NODES: usize = 2048;
    const N: u64 = 8192;
    let mut rng = Xoshiro256ss::new(seed ^ 0x5AAD);
    let mut builder = ApplicationBuilder::new("chase-stream-x2");
    let mut expected = Vec::new();
    for t in 0..2u64 {
        let (words, _) = chase_data(NODES, N, &mut rng);
        let a: Vec<u32> = (0..N).map(|_| rng.next_u32() >> 8).collect();
        let b: Vec<u32> = (0..N).map(|_| rng.next_u32() >> 8).collect();
        let c: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        builder = builder
            .buffer(
                format!("nodes{t}"),
                NODES as u64 * 8,
                u32s_to_bytes(&words),
                false,
            )
            .buffer(format!("a{t}"), N * 4, u32s_to_bytes(&a), false)
            .buffer(format!("b{t}"), N * 4, u32s_to_bytes(&b), false)
            .buffer(format!("c{t}"), N * 4, vec![], false);
        let base = (t * 4) as usize;
        builder = builder.thread(
            format!("t{t}"),
            chase_stream_kernel(),
            vec![
                ArgSpec::Buffer(base, 0),
                ArgSpec::Buffer(base + 1, 0),
                ArgSpec::Buffer(base + 2, 0),
                ArgSpec::Buffer(base + 3, 0),
                ArgSpec::Value(N as i64),
            ],
            true,
        );
        expected.push((base + 3, u32s_to_bytes(&c)));
    }
    Workload {
        name: "chase-stream-x2".into(),
        app: builder.build().expect("chase-stream-x2 app is valid"),
        expected,
    }
}
