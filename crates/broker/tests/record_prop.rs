//! Property tests for the journal's record codec: any record round-trips,
//! and the decoder is total — arbitrary bytes, any cut of a valid record
//! and any one corrupted byte of it decode to `Ok` or `Err`, never a
//! panic. `PROPTEST_CASES` sets the case count (256 by default).

use proptest::prelude::*;
use rjms_broker::persist::JournalRecord;
use rjms_broker::{Filter, Message, Priority};
use rjms_selector::Value;
use std::time::Duration;

/// Property names of 0–40 bytes, multi-byte characters included: both
/// sides of the message's 22-byte inline limit.
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z_é€𝄞]{0,40}".prop_map(|mut name| {
        while name.len() > 40 {
            name.pop();
        }
        name
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq round-trip comparison.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
    ]
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (
        (prop::option::of("[!-~]{0,24}"), prop::option::of("[a-z]{0,12}"), 0u8..=9),
        (prop::option::of("[a-z.]{0,12}"), prop::option::of(0u64..1 << 40)),
        prop::collection::vec((name_strategy(), value_strategy()), 0..6),
        prop::collection::vec(any::<u8>(), 0..256),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (correlation_id, message_type, priority),
                (reply_to, ttl),
                properties,
                body,
                trace,
            )| {
                let mut b = Message::builder().priority(Priority::new(priority)).body(body);
                if let Some(c) = correlation_id {
                    b = b.correlation_id(c);
                }
                if let Some(t) = message_type {
                    b = b.message_type(t);
                }
                if let Some(r) = reply_to {
                    b = b.reply_to(r);
                }
                if let Some(ttl) = ttl {
                    b = b.time_to_live(Duration::from_millis(ttl));
                }
                for (k, v) in properties {
                    b = b.property(k, v);
                }
                // `| 1`: a zero trace id does not decode, and a message never has one.
                b.trace_context(trace.0 | 1, trace.1).build()
            },
        )
}

fn filter_strategy() -> impl Strategy<Value = Filter> {
    prop_oneof![
        Just(Filter::None),
        (0u32..1000).prop_map(|n| Filter::correlation_id(&format!("#{n}")).unwrap()),
        (0u32..500, 0u32..500).prop_map(|(lo, span)| {
            Filter::correlation_id(&format!("[{lo};{}]", lo + span)).unwrap()
        }),
        ("[a-z]{1,8}", any::<i32>())
            .prop_map(|(key, n)| Filter::selector(&format!("{key}_ = {n}")).unwrap()),
    ]
}

fn record_strategy() -> impl Strategy<Value = JournalRecord> {
    let name = || "[a-z.-]{0,20}";
    prop_oneof![
        name().prop_map(|topic| JournalRecord::TopicCreated { topic }),
        (name(), message_strategy())
            .prop_map(|(topic, message)| JournalRecord::Publish { topic, message }),
        (name(), name(), filter_strategy()).prop_map(|(topic, name, filter)| {
            JournalRecord::DurableRegistered { topic, name, filter }
        }),
        (name(), name(), any::<u64>()).prop_map(|(topic, name, offset)| {
            JournalRecord::DurableCheckpoint { topic, name, offset }
        }),
        (name(), name())
            .prop_map(|(topic, name)| JournalRecord::DurableUnsubscribed { topic, name }),
    ]
}

proptest! {
    #[test]
    fn any_record_roundtrips(record in record_strategy()) {
        prop_assert_eq!(JournalRecord::decode(&record.encode()).unwrap(), record);
    }

    #[test]
    fn decoder_total_on_arbitrary_bytes(
        tag in 0u8..7,
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // Behind a record tag (or a bad one), so most cases get past the first byte.
        let _ = JournalRecord::decode(&[&[tag][..], &bytes].concat());
        let _ = JournalRecord::decode(&bytes);
    }

    #[test]
    fn decoder_total_on_cut_and_corrupted_records(
        record in record_strategy(),
        cut_ratio in 0.0f64..1.0,
        flip_ratio in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let encoded = record.encode();
        // Every record is self-delimiting: no strict prefix of one decodes.
        let cut = (encoded.len() as f64 * cut_ratio) as usize;
        prop_assert!(JournalRecord::decode(&encoded[..cut]).is_err());
        let mut corrupted = encoded.clone();
        corrupted[(encoded.len() as f64 * flip_ratio) as usize] ^= flip;
        let _ = JournalRecord::decode(&corrupted);
    }
}

#[test]
fn a_publish_with_the_largest_id_decodes() {
    let message = Message::builder().build();
    let mut encoded = JournalRecord::Publish { topic: "t".into(), message }.encode();
    // Tag, the topic's length and its one byte, then the id.
    encoded[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
    match JournalRecord::decode(&encoded) {
        Ok(JournalRecord::Publish { message, .. }) => assert_eq!(message.id().as_u64(), u64::MAX),
        other => panic!("decoded as {other:?}"),
    }
}
