//! Wire-transport benches: codec encode/decode ns/op for the frames the
//! hot path actually carries (`Work` out, `Outcome` back), and a full
//! Unix-socket loopback round trip through the framed [`Conn`] — the
//! per-evaluation wire overhead a networked deployment adds on top of
//! the evaluation itself.

#![allow(clippy::expect_used)]

use borg_net::codec::{decode_complete, encode, Msg, TraceCtx};
use borg_net::Conn;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::os::unix::net::UnixStream;
use std::time::Duration;

// The deployment stamps a trace context on every hot-path frame, so the
// benches carry one too — the measured cost includes trace propagation.
fn ctx() -> Option<TraceCtx> {
    Some(TraceCtx {
        trace_id: 123_456,
        parent_span: 7,
        sent_at: 0.061_803,
    })
}

fn work_msg() -> Msg {
    Msg::Work {
        eval_id: 123_456,
        attempt: 0,
        seq: 42,
        variables: (0..14).map(|i| f64::from(i) * 0.061_803).collect(),
        ctx: ctx(),
    }
}

fn outcome_msg() -> Msg {
    Msg::Outcome {
        worker: 3,
        eval_id: 123_456,
        attempt: 0,
        objectives: vec![0.25, 0.5, 0.75, 0.125, 0.625],
        constraints: Vec::new(),
        ctx: ctx(),
    }
}

fn bench_net(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    group.sample_size(10);

    group.bench_function("codec_encode_work_14var", |b| {
        let msg = work_msg();
        b.iter(|| encode(black_box(&msg)))
    });
    group.bench_function("codec_decode_work_14var", |b| {
        let frame = encode(&work_msg());
        b.iter(|| decode_complete(black_box(&frame)).expect("bench frame decodes"))
    });
    group.bench_function("codec_encode_outcome_5obj", |b| {
        let msg = outcome_msg();
        b.iter(|| encode(black_box(&msg)))
    });
    group.bench_function("codec_decode_outcome_5obj", |b| {
        let frame = encode(&outcome_msg());
        b.iter(|| decode_complete(black_box(&frame)).expect("bench frame decodes"))
    });

    // One dispatch-shaped round trip over a real (loopback) Unix socket:
    // Work down the wire, Outcome back, both through the framed Conn.
    group.bench_function("uds_loopback_round_trip", |b| {
        let (m, w) = UnixStream::pair().expect("socketpair");
        for s in [&m, &w] {
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set bench read timeout");
        }
        let mut master = Conn::new(borg_net::NetStream::Unix(m));
        let mut worker = Conn::new(borg_net::NetStream::Unix(w));
        let work = work_msg();
        let outcome = outcome_msg();
        b.iter(|| {
            master.send(&work).expect("send work");
            let got = worker.recv().expect("recv work").expect("work frame");
            worker.send(&outcome).expect("send outcome");
            let back = master.recv().expect("recv outcome").expect("outcome frame");
            black_box((got, back))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
