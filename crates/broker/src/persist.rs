//! Broker persistence: the journal's records, the broker's write path into
//! the journal, and recovery of the topic registry from it.
//!
//! Every state change the broker must survive is one [`JournalRecord`]: a
//! record tag and the record's items, as one journal frame payload. This
//! module knows the tags; a string, a filter or a message is laid out by
//! [`crate::codec`], which the TCP wire shares (a publish record is tag,
//! topic, message id and timestamp, then the message's [`Fields`]). The
//! journal layer adds checksums and torn-tail recovery; this module defines
//! what is stored, appends it
//! (`BrokerInner::append_record`) and rebuilds the topics from its records
//! at start-up (`recover_topics`, through `Journal::recover`).
//!
//! Filters are persisted by their textual form ([`Filter::correlation_id`]
//! pattern syntax / selector source) and re-parsed on recovery, so the
//! journal format is decoupled from the selector AST.

use crate::broker::BrokerInner;
use crate::codec::{Fields, FilterSource, Put, Reader, Stamp};
use crate::config::DURABLE_BUFFER_CAPACITY;
use crate::dispatch::Queued;
use crate::durable::DurableState;
use crate::filter::Filter;
use crate::message::Message;
use crate::subscriptions::{LiveFlags, Subscriptions};
use parking_lot::Mutex;
use rjms_journal::{Batch, Journal, JournalConfig};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// One durable broker state change.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A topic was created.
    TopicCreated {
        /// Topic name.
        topic: String,
    },
    /// A message was accepted from a publisher on `topic`.
    Publish {
        /// Topic name.
        topic: String,
        /// The full message.
        message: Message,
    },
    /// A durable subscription was created, or its filter replaced.
    DurableRegistered {
        /// Topic name.
        topic: String,
        /// Durable subscription name.
        name: String,
        /// The subscription filter at registration time.
        filter: Filter,
    },
    /// All publishes on `topic` up to and including `offset` have been
    /// delivered to the named durable subscription's consumer.
    DurableCheckpoint {
        /// Topic name.
        topic: String,
        /// Durable subscription name.
        name: String,
        /// Journal offset of the last delivered publish.
        offset: u64,
    },
    /// A durable subscription was permanently removed.
    DurableUnsubscribed {
        /// Topic name.
        topic: String,
        /// Durable subscription name.
        name: String,
    },
}

pub use crate::codec::DecodeError;

const TAG_TOPIC_CREATED: u8 = 1;
const TAG_PUBLISH: u8 = 2;
const TAG_DURABLE_REGISTERED: u8 = 3;
const TAG_DURABLE_CHECKPOINT: u8 = 4;
const TAG_DURABLE_UNSUBSCRIBED: u8 = 5;

/// Encodes a [`JournalRecord::Publish`] without cloning the message.
pub fn encode_publish(topic: &str, message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + message.approximate_size());
    encode_publish_into(&mut out, topic, message);
    out
}

/// [`encode_publish`] appended to `out` — the dispatcher's per-message hot
/// path, where `out` is the journal's own frame buffer.
pub fn encode_publish_into(out: &mut impl Put, topic: &str, message: &Message) {
    out.raw(&[TAG_PUBLISH]);
    out.str(topic);
    out.u64(message.id().as_u64());
    out.u64(message.timestamp_millis());
    out.fields(Fields::of(message, message.expiration_millis()));
}

/// The length of [`encode_publish`]'s record, counted without writing it:
/// a publisher checks it against the journal's frame limit before queueing.
pub(crate) fn publish_record_len(topic: &str, message: &Message) -> usize {
    struct Count(usize);
    impl Put for Count {
        fn raw(&mut self, bytes: &[u8]) {
            self.0 += bytes.len();
        }
    }
    let mut count = Count(0);
    encode_publish_into(&mut count, topic, message);
    count.0
}

/// A [`JournalRecord::DurableCheckpoint`] appended to `out` from borrowed
/// names: the dispatcher writes one every 256 deliveries.
pub(crate) fn encode_checkpoint_into(out: &mut Vec<u8>, topic: &str, name: &str, offset: u64) {
    out.push(TAG_DURABLE_CHECKPOINT);
    out.str(topic);
    out.str(name);
    out.u64(offset);
}

impl JournalRecord {
    /// Serializes the record into a journal frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// [`JournalRecord::encode`] appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::TopicCreated { topic } => {
                out.push(TAG_TOPIC_CREATED);
                out.str(topic);
            }
            JournalRecord::Publish { topic, message } => encode_publish_into(out, topic, message),
            JournalRecord::DurableRegistered { topic, name, filter } => {
                out.push(TAG_DURABLE_REGISTERED);
                out.str(topic);
                out.str(name);
                out.filter(&FilterSource::of(filter));
            }
            JournalRecord::DurableCheckpoint { topic, name, offset } => {
                encode_checkpoint_into(out, topic, name, *offset);
            }
            JournalRecord::DurableUnsubscribed { topic, name } => {
                out.push(TAG_DURABLE_UNSUBSCRIBED);
                out.str(topic);
                out.str(name);
            }
        }
    }

    /// Deserializes a record from a journal frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for malformed payloads (a frame that passed
    /// its checksum but does not parse — a version skew or a bug, never a
    /// torn write).
    pub fn decode(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_TOPIC_CREATED => JournalRecord::TopicCreated { topic: r.string()? },
            TAG_PUBLISH => {
                let topic = r.string()?;
                let (id, timestamp_millis) = (r.u64()?, r.u64()?);
                let message = Message::read(&mut r, Stamp::Stored(id, timestamp_millis))?;
                JournalRecord::Publish { topic, message }
            }
            TAG_DURABLE_REGISTERED => JournalRecord::DurableRegistered {
                topic: r.string()?,
                name: r.string()?,
                filter: r
                    .filter()?
                    .parse()
                    .map_err(|e| DecodeError::new(format!("stored filter: {e}")))?,
            },
            TAG_DURABLE_CHECKPOINT => JournalRecord::DurableCheckpoint {
                topic: r.string()?,
                name: r.string()?,
                offset: r.u64()?,
            },
            TAG_DURABLE_UNSUBSCRIBED => {
                JournalRecord::DurableUnsubscribed { topic: r.string()?, name: r.string()? }
            }
            tag => return Err(DecodeError::new(format!("unknown record tag {tag}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

/// A journal write failure is fatal: the broker cannot honor the
/// durability contract without its write-ahead log.
const APPEND_FAILED: &str = "write-ahead journal append failed; cannot continue durably";

impl BrokerInner {
    /// One commit: `fill` appends its records to a batch under the journal
    /// lock, and they are on the file (per the fsync policy) when this
    /// returns `fill`'s result. The broker's one append failure site.
    /// Without persistence this is a no-op and `fill` is never called, so
    /// a broker with no journal does not serialise what it would not
    /// store.
    fn commit<T>(&self, fill: impl FnOnce(&mut Batch<'_>) -> rjms_journal::Result<T>) -> Option<T> {
        let mut journal = self.journal.as_ref()?.lock();
        Some(journal.batch(fill).expect(APPEND_FAILED))
    }

    /// Appends one record to the journal — a commit of its own, for the
    /// rare records (topic, durable registration, checkpoint) — and returns
    /// the record's journal offset. `payload` writes the record into the
    /// journal's frame buffer.
    pub(crate) fn append_record(&self, payload: impl FnOnce(&mut Vec<u8>)) -> Option<u64> {
        self.commit(|batch| batch.append_with(payload))
    }

    /// The write-ahead step of a run (DESIGN.md §3.3b "Group commit"):
    /// appends the publish record of `first` and of every message of
    /// `rest` that is neither journalled yet nor expired, as one commit,
    /// and notes each one's offset on it. When this returns, every live
    /// message of the run is on the file (per the fsync policy) and none
    /// of them has been delivered; without persistence, no offset is set.
    pub(crate) fn append_publishes(&self, first: &mut Queued, rest: &mut VecDeque<Queued>) {
        self.commit(|batch| {
            let mut append = |queued: &mut Queued| {
                let offset = batch.append_with(|out| {
                    encode_publish_into(out, &queued.topic.name, &queued.message);
                });
                offset.map(|offset| queued.publish_offset = Some(offset))
            };
            append(first)?;
            for queued in rest.iter_mut() {
                if queued.publish_offset.is_none() && !queued.message.is_expired() {
                    append(queued)?;
                }
            }
            Ok(())
        });
    }

    /// Forces the journal to stable storage (no-op without persistence).
    pub(crate) fn sync_journal(&self) {
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock();
            journal.sync().expect("write-ahead journal sync failed; cannot continue durably");
        }
    }
}

/// Recovers the journal and rebuilds from its records the topics' names (in
/// order) and durable subscriptions, from which `Broker::start` builds the
/// topics: every publish logged after a durable subscription's registration
/// but not covered by one of its checkpoint records goes back into its
/// retained backlog (at-least-once re-delivery). Expired messages and
/// backlog beyond [`DURABLE_BUFFER_CAPACITY`] are discarded, mirroring live
/// behaviour. A journal that cannot be recovered panics, as does a
/// checksummed record that does not decode.
pub(crate) fn recover_topics(
    journal: JournalConfig,
    live_flags: &LiveFlags,
) -> (Journal, Vec<(String, Subscriptions)>) {
    struct DurableRecovery {
        filter: Filter,
        /// `(journal offset, message)` publishes awaiting a checkpoint.
        backlog: VecDeque<(u64, Arc<Message>)>,
    }

    // By name, so that which topics get a metric series of their own does
    // not depend on the run.
    let mut recovered: BTreeMap<String, HashMap<String, DurableRecovery>> = BTreeMap::new();
    let (journal, _report) = Journal::recover(journal, |offset, payload| {
        let record = JournalRecord::decode(payload).unwrap_or_else(|e| {
            // The frame passed its CRC, so this is version skew or a bug,
            // not a torn write — refuse to guess at broker state.
            panic!("journal frame {offset} is checksummed but undecodable: {e}")
        });
        match record {
            JournalRecord::TopicCreated { topic } => {
                recovered.entry(topic).or_default();
            }
            JournalRecord::Publish { topic, message } => {
                let message = Arc::new(message);
                if let Some(durables) = recovered.get_mut(&topic) {
                    for durable in durables.values_mut() {
                        if durable.filter.matches(&message) {
                            durable.backlog.push_back((offset, Arc::clone(&message)));
                        }
                    }
                }
            }
            JournalRecord::DurableRegistered { topic, name, filter } => {
                // (Re-)registration starts from an empty backlog — a
                // changed filter discards retained messages (JMS
                // change-of-selector semantics).
                recovered
                    .entry(topic)
                    .or_default()
                    .insert(name, DurableRecovery { filter, backlog: VecDeque::new() });
            }
            JournalRecord::DurableCheckpoint { topic, name, offset } => {
                if let Some(durable) =
                    recovered.get_mut(&topic).and_then(|durables| durables.get_mut(&name))
                {
                    while durable.backlog.front().is_some_and(|(o, _)| *o <= offset) {
                        durable.backlog.pop_front();
                    }
                }
            }
            JournalRecord::DurableUnsubscribed { topic, name } => {
                if let Some(durables) = recovered.get_mut(&topic) {
                    durables.remove(&name);
                }
            }
        }
    })
    .expect("failed to recover the write-ahead journal");

    let mut topics = Vec::with_capacity(recovered.len());
    for (topic_name, durables) in recovered {
        let mut subs = Subscriptions::default();
        for (name, recovery) in durables {
            let mut retained: VecDeque<Arc<Message>> = recovery
                .backlog
                .into_iter()
                .map(|(_, message)| message)
                .filter(|message| !message.is_expired())
                .collect();
            // Oldest first out, as on a live overflow.
            retained.drain(..retained.len().saturating_sub(DURABLE_BUFFER_CAPACITY));
            let retained = Mutex::new(retained);
            let state = DurableState { name, retained, connection: Default::default() };
            subs.add(Arc::new(state).subscription(recovery.filter, live_flags.next()));
        }
        topics.push((topic_name, subs));
    }
    (journal, topics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_selector::value::Value;

    fn roundtrip(record: JournalRecord) {
        let encoded = record.encode();
        let decoded = JournalRecord::decode(&encoded).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn topic_and_durable_records_roundtrip() {
        roundtrip(JournalRecord::TopicCreated { topic: "stocks".into() });
        roundtrip(JournalRecord::DurableCheckpoint {
            topic: "stocks".into(),
            name: "auditor".into(),
            offset: u64::MAX,
        });
        roundtrip(JournalRecord::DurableUnsubscribed {
            topic: "stocks".into(),
            name: "auditor".into(),
        });
    }

    #[test]
    fn durable_registration_roundtrips_every_filter_kind() {
        for filter in [
            Filter::None,
            Filter::correlation_id("[7;13]").unwrap(),
            Filter::correlation_id("order-*").unwrap(),
            Filter::selector("price < 50.0 AND symbol = 'ACME'").unwrap(),
        ] {
            roundtrip(JournalRecord::DurableRegistered {
                topic: "stocks".into(),
                name: "auditor".into(),
                filter,
            });
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    /// Every header set and one property of each value tag.
    fn golden_message() -> Message {
        let properties = [
            ("price", &Value::Float(49.5)),
            ("symbol", &Value::Str("ACME".into())),
            ("urgent", &Value::Bool(true)),
            ("volume", &Value::Int(1_000_000)),
        ];
        let mut fields = Vec::new();
        fields.fields(Fields {
            correlation_id: Some("#42"),
            message_type: Some("quote"),
            priority: 7,
            reply_to: Some("replies"),
            expiry: Some(1_700_000_060_000),
            properties,
            body: b"payload",
            trace_id: 0x0102_0304_0506_0708,
            trace_origin_ns: 0x1112_1314_1516_1718,
        });
        let stamp = Stamp::Stored(42, 1_700_000_000_000);
        Message::read(&mut Reader::new(&fields), stamp).unwrap()
    }

    /// A publish record as the journal has always written it.
    const PUBLISH_HEX: &str = concat!(
        "02",                                     // publish tag
        "0600000073746f636b73",                   // topic "stocks"
        "2a00000000000000",                       // message id 42
        "0068e5cf8b010000",                       // timestamp
        "0103000000233432",                       // correlation id "#42"
        "010500000071756f7465",                   // type "quote"
        "07",                                     // priority
        "01070000007265706c696573",               // reply-to "replies"
        "016052e6cf8b010000",                     // expiration
        "04000000",                               // four properties
        "050000007072696365020000000000c04840",   // price = 49.5
        "0600000073796d626f6c030400000041434d45", // symbol = 'ACME'
        "06000000757267656e740001",               // urgent = true
        "06000000766f6c756d650140420f0000000000", // volume = 1000000
        "070000007061796c6f6164",                 // body
        "08070605040302011817161514131211",       // trace id, origin ns
    );

    /// A durable registration with a selector.
    const REGISTERED_HEX: &str = concat!(
        "03",                               // durable-registered tag
        "0600000073746f636b73",             // topic "stocks"
        "0700000061756469746f72",           // name "auditor"
        "02",                               // selector
        "0c0000007072696365203c2035302e30", // "price < 50.0"
    );

    /// Both publish encoders write the pinned bytes, and they decode back
    /// to the whole message: headers, each property tag, id, timestamp and
    /// trace context.
    #[test]
    fn records_are_pinned_to_the_byte() {
        assert_eq!(hex(&encode_publish("stocks", &golden_message())), PUBLISH_HEX);
        assert_eq!(publish_record_len("stocks", &golden_message()), PUBLISH_HEX.len() / 2);
        let publish = JournalRecord::Publish { topic: "stocks".into(), message: golden_message() };
        let registered = JournalRecord::DurableRegistered {
            topic: "stocks".into(),
            name: "auditor".into(),
            filter: Filter::selector("price < 50.0").unwrap(),
        };
        for (record, golden) in [(publish, PUBLISH_HEX), (registered, REGISTERED_HEX)] {
            assert_eq!(hex(&record.encode()), golden);
            assert_eq!(JournalRecord::decode(&unhex(golden)).unwrap(), record);
        }
    }

    /// A publisher counts a record only when `approximate_size` says it may
    /// be near the frame limit, so that must bound it: with every header,
    /// an expiry and each property kind, with long strings, and empty.
    #[test]
    fn the_approximate_size_bounds_the_publish_record() {
        let long = "x".repeat(100);
        let long_strings =
            Message::builder().correlation_id(&long).property(&long, long.as_str()).build();
        for message in [golden_message(), long_strings, Message::builder().build()] {
            let bound = message.approximate_size() + "stocks".len();
            assert!(publish_record_len("stocks", &message) <= bound);
        }
    }

    #[test]
    fn a_zero_trace_id_does_not_decode() {
        let mut record = unhex(PUBLISH_HEX);
        let trace_at = record.len() - 16;
        record[trace_at..trace_at + 8].fill(0);
        let e = JournalRecord::decode(&record).unwrap_err();
        assert!(e.message.contains("trace id"), "{e}");
    }

    #[test]
    fn without_a_journal_no_payload_is_built() {
        let broker = crate::Broker::start(crate::BrokerConfig::default());
        let offset = broker.inner.append_record(|_| unreachable!("nothing would store it"));
        assert_eq!(offset, None);
    }

    #[test]
    fn truncated_and_garbage_payloads_are_rejected() {
        let encoded = JournalRecord::TopicCreated { topic: "stocks".into() }.encode();
        for cut in 0..encoded.len() {
            assert!(JournalRecord::decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
        assert!(JournalRecord::decode(&[99, 0, 0]).is_err());
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(JournalRecord::decode(&trailing).is_err());
    }
}
