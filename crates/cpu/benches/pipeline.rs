//! Criterion benchmark of the pipeline timing loop: nanoseconds per
//! simulated (trace) instruction for the trace shapes the event-driven
//! scheduler targets — dense independent ALU code (window-scan bound),
//! strided vector memory (stall/idle-cycle bound), 3D
//! `3dvload`/`3dvmov` streams (wakeup-chain bound) and vector loads
//! parked behind a busy port among ready ALU work (issue-scan bound).
//!
//! Smoke mode for CI: `MOM3D_BENCH_SMOKE=1 cargo bench -p mom3d-cpu
//! --bench pipeline` runs each benchmark once, just proving the harness
//! and the traces stay alive.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mom3d_cpu::{MemorySystemKind, Processor, ProcessorConfig};
use mom3d_isa::{DReg, Gpr, MomReg, Trace, TraceBuilder, UsimdOp, Width};

/// Independent scalar ALU ops with a sprinkle of µSIMD: the issue loop
/// sees a full 128-entry window of mostly-ready instructions.
fn dense_alu_trace() -> Trace {
    let mut tb = TraceBuilder::new();
    for i in 0..8192u32 {
        tb.li(Gpr::new((i % 28) as u8), i as i64);
    }
    tb.finish()
}

/// Strided vector loads feeding vector compute on the vector cache:
/// long memory latencies leave the legacy loop spinning through idle
/// cycles between completions.
fn strided_vector_trace() -> Trace {
    let mut tb = TraceBuilder::new();
    tb.set_vl(16);
    tb.set_vs(136);
    let b = tb.li(Gpr::new(1), 0x1_0000);
    for k in 0..1024u64 {
        let d = MomReg::new((k % 8) as u8);
        tb.vload(d, b, 0x1_0000 + (k % 16) * 64);
        tb.vop2(UsimdOp::AbsDiffU(Width::B8), MomReg::new(8 + (k % 4) as u8), d, MomReg::new(12));
    }
    tb.finish()
}

/// The paper's 3D access pattern: one `3dvload` per search window, then
/// a pointer-renamed chain of `3dvmov`s and vector compute.
fn trace_3d() -> Trace {
    let mut tb = TraceBuilder::new();
    tb.set_vl(8);
    let b = tb.li(Gpr::new(1), 0x1_0000);
    for blk in 0..256u64 {
        tb.dvload(DReg::new(0), b, 0x1_0000 + blk * 16, 640, 9, false);
        for _ in 0..8 {
            let m = tb.dvmov(MomReg::new(0), DReg::new(0), 1);
            tb.vop2(UsimdOp::AbsDiffU(Width::B8), MomReg::new(2), m, MomReg::new(1));
        }
    }
    tb.finish()
}

/// Strided vector loads queued behind the single vector port (each
/// holds it for 16 cycles), interleaved with young independent ALU
/// work: the ready list keeps a queue of loads that cannot issue ahead
/// of ALU ops that can, so an issue scan that does not stop once the
/// vector-memory lane is closed revisits every parked load every cycle.
fn port_bound_trace() -> Trace {
    let mut tb = TraceBuilder::new();
    tb.set_vl(16);
    tb.set_vs(640);
    let b = tb.li(Gpr::new(1), 0x1_0000);
    for k in 0..1024u32 {
        tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + (k as u64 % 32) * 8);
        for j in 0..3 {
            tb.li(Gpr::new(2 + ((3 * k + j) % 26) as u8), j as i64);
        }
    }
    tb.finish()
}

fn bench_pipeline(c: &mut Criterion) {
    let shapes: [(&str, Trace, MemorySystemKind); 4] = [
        ("dense_alu", dense_alu_trace(), MemorySystemKind::Ideal),
        ("strided_vector", strided_vector_trace(), MemorySystemKind::VectorCache),
        ("3d", trace_3d(), MemorySystemKind::VectorCache3d),
        ("port_bound", port_bound_trace(), MemorySystemKind::VectorCache),
    ];
    let mut g = c.benchmark_group("pipeline_ns_per_instr");
    for (name, trace, mem) in &shapes {
        let p = Processor::new(
            ProcessorConfig::mom().with_memory(*mem).with_warm_caches(true),
        );
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_function(*name, |b| b.iter(|| p.run(trace).expect("runs").cycles));
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
