//! Smoke test of the serving experiments' shared harness: one spawned
//! node under a short pipelined load, the commit helpers, and the
//! nearest-rank percentile at the sample counts the gates read.

use std::sync::atomic::AtomicBool;

use arbitrex_bench::serving::{light_pool, percentile, pipelined_load, put_body, seq, Load, Node};

#[test]
fn pipelined_load_answers_every_request_with_200() {
    let node = Node::spawn(|config| config.threads = 2);
    let pool = light_pool();
    let load = pipelined_load(&node.addr, &pool, 2, 4, 2, &AtomicBool::new(false));
    // 2 clients x 2 rounds over the pool, in batches of 4 plus a tail.
    let expected = 2 * 2 * pool.len();
    assert_eq!(
        load,
        Load {
            requests: expected,
            ok: expected
        }
    );
    node.stop();
}

#[test]
fn a_set_stop_flag_sends_nothing() {
    let node = Node::spawn(|config| config.state_dir = None);
    let load = pipelined_load(&node.addr, &light_pool(), 2, 4, 2, &AtomicBool::new(true));
    assert_eq!(load, Load::default());
    node.stop();
}

#[test]
fn commit_acks_carry_a_climbing_seq() {
    let node = Node::spawn(|_| {});
    let mut client = node.client();
    let seqs: Vec<u64> = (0..3)
        .map(|i| {
            let reply = client
                .request("POST", "/v1/kb/harness", Some(put_body(i)))
                .expect("commit");
            assert_eq!(reply.status, 200);
            seq(&reply.body).expect("seq in the ack")
        })
        .collect();
    assert_eq!(seqs, [1, 2, 3]);
    assert_eq!(seq(br#"{"name": "kb", "models": [{"seq": 9}]}"#), None);
    node.stop();
}

#[test]
fn percentile_is_nearest_rank_at_the_gated_sample_counts() {
    let ramp = |n: u64| (1..=n).collect::<Vec<u64>>();
    // E19's lag and failover p99 at quick and full sample counts pick the
    // same sample as the rounded-index rule `round((n - 1) * p / 100)`.
    for n in [40u64, 200, 5, 20] {
        let rounded = ((n - 1) as f64 * 0.99).round() as u64 + 1;
        assert_eq!(percentile(&ramp(n), 99), rounded, "p99 of {n}");
    }
    assert_eq!(percentile(&ramp(200), 99), 198);
    assert_eq!(percentile(&ramp(40), 99), 40);
    // E19's p50s.
    assert_eq!(percentile(&ramp(40), 50), 20);
    assert_eq!(percentile(&ramp(200), 50), 100);
    assert_eq!(percentile(&ramp(5), 50), 3);
    assert_eq!(percentile(&ramp(20), 50), 10);
    // E21's two quick trials: p50 is the smaller, p99 the larger.
    assert_eq!(percentile(&[150, 205], 50), 150);
    assert_eq!(percentile(&[150, 205], 99), 205);
    // A single value (E20's blackout shape) is every percentile.
    assert_eq!(percentile(&[8], 50), 8);
    assert_eq!(percentile(&[8], 99), 8);
    // E15/E16 latency p95 over 64 and 512 samples.
    assert_eq!(percentile(&ramp(64), 95), 61);
    assert_eq!(percentile(&ramp(512), 95), 487);
}
