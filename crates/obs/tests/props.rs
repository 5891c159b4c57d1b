//! Property tests for the read side: the streaming histogram against
//! exact sorted-quantile oracles (including merge associativity across
//! simulated shards), divergence triage against synthetically mutated
//! streams (flip one field at a random index — the diff must localize
//! exactly that index and field), and the line decoder against the
//! writer (every variant, random fields, tagged and untagged).

#![forbid(unsafe_code)]

use lll_obs::diff::diff_streams;
use lll_obs::schema::Line;
use lll_obs::{Event, Histogram};
use proptest::prelude::*;

/// A float for an event field: mostly finite, sometimes non-finite
/// (`pick` 0–2), which the writer encodes as `null`.
fn float(x: f64, pick: u8) -> f64 {
    match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => x,
    }
}

/// The event variant `variant` (mod 13), its fields drawn from `ints`,
/// `floats` and `id`.
fn event(variant: usize, ints: &[u64], floats: &[f64], id: String) -> Event {
    let n = |i: usize| ints[i] as usize;
    let list = |k: usize| ints[..k % ints.len()].iter().map(|&v| v as usize).collect();
    let xs = |k: usize| floats[..k % (floats.len() + 1)].to_vec();
    match variant % 13 {
        0 => Event::SimRunStart {
            nodes: n(0),
            edges: n(1),
            max_degree: n(2),
            seed: ints[3],
        },
        1 => Event::RoundStart {
            round: n(0),
            running: n(1),
        },
        2 => Event::NodeHalt {
            round: n(0),
            node: n(1),
        },
        3 => Event::RoundEnd {
            round: n(0),
            delivered: n(1),
            bytes: n(2),
            halted: n(3),
            running: n(4),
        },
        4 => Event::SimRunEnd {
            rounds: n(0),
            messages: n(1),
        },
        5 => Event::FixRunStart {
            variables: n(0),
            events: n(1),
            max_rank: n(2),
        },
        6 => Event::FixStep {
            step: n(0),
            variable: n(1),
            value: n(2),
            rank: n(3),
            touched: list(n(4)),
            inc: xs(n(5)),
            phi_product: xs(n(6)),
            headroom: xs(n(7)),
        },
        7 => Event::AuditPass {
            step: n(0),
            variable: n(1),
        },
        8 => Event::AuditViolation {
            step: n(0),
            variable: n(1),
            pair_violations: list(n(2)),
            prob_violations: list(n(3)),
        },
        9 => Event::FixRunEnd {
            steps: n(0),
            violated: n(1),
        },
        10 => Event::ExperimentStart { id },
        11 => Event::ExperimentRow { id, index: n(0) },
        _ => Event::ExperimentEnd { id, rows: n(0) },
    }
}

/// The histogram's documented accuracy: a reported quantile is never
/// below the exact order statistic and at most one sub-bucket width
/// (1/32, relative) above it.
fn assert_quantile_close(est: u64, exact: u64, q: f64) {
    assert!(est >= exact, "q={q}: est {est} < exact {exact}");
    assert!(
        est - exact <= exact / 32 + 1,
        "q={q}: est {est} too far above exact {exact}"
    );
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_quantiles_match_sorted_oracle(
        values in proptest::collection::vec(any::<u64>(), 1..400),
        q in 0.01f64..1.0f64,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for q in [q, 0.5, 0.9, 0.99, 1.0] {
            assert_quantile_close(h.quantile(q), exact_quantile(&sorted, q), q);
        }
    }

    #[test]
    fn histogram_merge_is_associative_and_shard_order_free(
        a in proptest::collection::vec(any::<u64>(), 0..120),
        b in proptest::collection::vec(any::<u64>(), 0..120),
        c in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let hist = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c): shards can be folded in any
        // association order.
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_bc = hb.clone();
        right_bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_bc);
        prop_assert_eq!(&left, &right);

        // Commutes with shard order, and equals the single-stream fold.
        let mut reversed = hc.clone();
        reversed.merge(&hb);
        reversed.merge(&ha);
        prop_assert_eq!(&left, &reversed);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist(&all));
    }

    #[test]
    fn diff_localizes_random_single_field_mutations(
        rounds in 1usize..24,
        mutate_at in any::<usize>(),
        field_pick in any::<u8>(),
        delivered in proptest::collection::vec(0u64..1000, 24),
    ) {
        // A synthetic but schema-shaped stream: round_start/round_end
        // pairs with varying payloads.
        let events: Vec<Event> = (0..rounds)
            .flat_map(|r| {
                [
                    Event::RoundStart {
                        round: r + 1,
                        running: 8,
                    },
                    Event::RoundEnd {
                        round: r + 1,
                        delivered: delivered[r] as usize,
                        bytes: 8 * delivered[r] as usize,
                        halted: 0,
                        running: 8,
                    },
                ]
            })
            .collect();
        let i = mutate_at % events.len();
        let mut mutated = events.clone();
        // Flip exactly one numeric field of event i by +1.
        let expected_field = match &mut mutated[i] {
            Event::RoundStart { running, .. } => {
                *running += 1;
                "running"
            }
            Event::RoundEnd {
                delivered,
                bytes,
                halted,
                running,
                ..
            } => match field_pick % 4 {
                0 => {
                    *delivered += 1;
                    "delivered"
                }
                1 => {
                    *bytes += 1;
                    "bytes"
                }
                2 => {
                    *halted += 1;
                    "halted"
                }
                _ => {
                    *running += 1;
                    "running"
                }
            },
            _ => unreachable!("stream holds only round events"),
        };
        let serialize = |evs: &[Event]| {
            evs.iter()
                .map(|e| e.to_jsonl())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let d = diff_streams(&serialize(&events), &serialize(&mutated), 2)
            .expect("mutated stream must diverge");
        prop_assert_eq!(d.index, i);
        prop_assert_eq!(d.fields.len(), 1);
        prop_assert_eq!(d.fields[0].field.as_str(), expected_field);
        // Streams agree again after the mutated event, so the diff's
        // after-context on both sides matches.
        prop_assert_eq!(&d.after_a, &d.after_b);
    }
}

proptest! {
    // Cheap cases: enough of them that every variant meets every kind
    // of float many times.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decoding_inverts_the_writer(
        variant in 0usize..13,
        ints in proptest::collection::vec(any::<u64>(), 8),
        raw_floats in proptest::collection::vec(any::<f64>(), 0..6),
        picks in proptest::collection::vec(0u8..6, 6),
        id_chars in proptest::collection::vec(0u32..0x800, 0..12),
        tag_pick in 0u8..4,
        tag_n in any::<i64>(),
    ) {
        let floats: Vec<f64> = raw_floats.iter().zip(&picks).map(|(&x, &p)| float(x, p)).collect();
        // Any chars the writer must escape or pass through: controls,
        // quotes, backslashes, non-ASCII.
        let id: String = id_chars.iter().filter_map(|&c| char::from_u32(c)).collect();
        let tag = match tag_pick {
            0 => None,
            1 => Some(tag_n.to_string()),
            2 => Some(serde_json::to_string(&serde::Value::String(id.clone())).unwrap()),
            _ => Some("null".to_owned()),
        };
        let e = event(variant, &ints, &floats, id.clone());
        // Non-finite floats are written as `null` and decode to NaN.
        let as_read: Vec<f64> = floats.iter().map(|&x| if x.is_finite() { x } else { f64::NAN }).collect();
        let want = event(variant, &ints, &as_read, id);
        let line = e.to_jsonl_tagged(tag.as_deref());
        match Line::decode(&line) {
            Ok(Line::Event { event, req }) => {
                // Debug renders NaN as itself, so the comparison sees it.
                prop_assert_eq!(format!("{event:?}"), format!("{want:?}"));
                prop_assert_eq!(req, tag);
                prop_assert_eq!(event.to_jsonl_tagged(req.as_deref()), line);
            }
            other => prop_assert!(false, "{line}: {other:?}"),
        }
    }

    #[test]
    fn integer_float_entries_decode_as_floats(
        ints in proptest::collection::vec(-1000i64..1000, 0..6),
    ) {
        let text: Vec<String> = ints.iter().map(i64::to_string).collect();
        let line = format!(
            "{{\"type\":\"fix_step\",\"step\":0,\"variable\":1,\"value\":0,\"rank\":1,\
             \"touched\":[],\"inc\":[{}],\"phi_product\":[],\"headroom\":[]}}",
            text.join(",")
        );
        match Line::decode(&line) {
            Ok(Line::Event { event: Event::FixStep { inc, .. }, .. }) => {
                let want: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
                prop_assert_eq!(inc, want);
            }
            other => prop_assert!(false, "{line}: {other:?}"),
        }
    }
}
