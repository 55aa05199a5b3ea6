//! Broker persistence: the journal record encoding, the broker's write
//! path into the journal, and recovery of the topic registry from it.
//!
//! Every state change the broker must survive is one [`JournalRecord`],
//! serialized into a journal frame payload with a compact little-endian,
//! length-prefixed binary format. The journal layer adds checksums and
//! torn-tail recovery; this module defines what is stored, appends it
//! (`BrokerInner::append_record`) and replays it at start-up
//! (`recover_topics`).
//!
//! Filters are persisted by their textual form ([`Filter::correlation_id`]
//! pattern syntax / selector source) and re-parsed on recovery, so the
//! journal format is decoupled from the selector AST.

use crate::broker::BrokerInner;
use crate::config::BrokerConfig;
use crate::dispatch::Queued;
use crate::durable::DurableState;
use crate::filter::Filter;
use crate::message::{Message, Priority};
use crate::subscriptions::{LiveFlags, Subscriptions};
use parking_lot::Mutex;
use rjms_journal::Journal;
use rjms_selector::value::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
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

/// A record that could not be decoded (format violation, not I/O).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was malformed.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed journal record: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(message: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError { message: message.into() })
}

const TAG_TOPIC_CREATED: u8 = 1;
const TAG_PUBLISH: u8 = 2;
const TAG_DURABLE_REGISTERED: u8 = 3;
const TAG_DURABLE_CHECKPOINT: u8 = 4;
const TAG_DURABLE_UNSUBSCRIBED: u8 = 5;

const FILTER_NONE: u8 = 0;
const FILTER_CORRELATION: u8 = 1;
const FILTER_SELECTOR: u8 = 2;

const VALUE_BOOL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Bool(b) => {
            out.push(VALUE_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(VALUE_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_str(out, s);
        }
    }
}

fn put_filter(out: &mut Vec<u8>, filter: &Filter) {
    match filter {
        Filter::None => out.push(FILTER_NONE),
        Filter::CorrelationId(c) => {
            out.push(FILTER_CORRELATION);
            put_str(out, &c.to_string());
        }
        Filter::Selector(s) => {
            out.push(FILTER_SELECTOR);
            put_str(out, s.source());
        }
    }
}

/// Byte-slice reader with bounds-checked accessors.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.at < n {
            return err(format!(
                "need {n} bytes at position {}, have {}",
                self.at,
                self.buf.len() - self.at
            ));
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let raw = self.bytes()?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => err("string field is not UTF-8"),
        }
    }

    fn opt_string(&mut self) -> Result<Option<String>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.string()?)),
            flag => err(format!("bad option flag {flag}")),
        }
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            VALUE_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            VALUE_INT => Ok(Value::Int(self.i64()?)),
            VALUE_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            VALUE_STR => Ok(Value::Str(self.string()?)),
            tag => err(format!("bad value tag {tag}")),
        }
    }

    fn filter(&mut self) -> Result<Filter, DecodeError> {
        match self.u8()? {
            FILTER_NONE => Ok(Filter::None),
            FILTER_CORRELATION => {
                let pattern = self.string()?;
                Filter::correlation_id(&pattern)
                    .map_err(|e| DecodeError { message: format!("stored correlation filter: {e}") })
            }
            FILTER_SELECTOR => {
                let source = self.string()?;
                Filter::selector(&source)
                    .map_err(|e| DecodeError { message: format!("stored selector: {e}") })
            }
            tag => err(format!("bad filter tag {tag}")),
        }
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            err(format!("{} trailing bytes", self.buf.len() - self.at))
        }
    }
}

fn put_message(out: &mut Vec<u8>, message: &Message) {
    out.extend_from_slice(&message.id().as_u64().to_le_bytes());
    out.extend_from_slice(&message.timestamp_millis().to_le_bytes());
    put_opt_str(out, message.correlation_id());
    put_opt_str(out, message.message_type());
    out.push(message.priority().level());
    put_opt_str(out, message.reply_to());
    match message.expiration_millis() {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
    out.extend_from_slice(&(message.properties().len() as u32).to_le_bytes());
    for (key, value) in message.properties() {
        put_str(out, key);
        put_value(out, value);
    }
    put_bytes(out, message.body());
    out.extend_from_slice(&message.trace_id().to_le_bytes());
    out.extend_from_slice(&message.trace_origin_ns().to_le_bytes());
}

fn read_message(cursor: &mut Cursor<'_>) -> Result<Message, DecodeError> {
    let id_raw = cursor.u64()?;
    let timestamp_millis = cursor.u64()?;
    let correlation_id = cursor.opt_string()?;
    let message_type = cursor.opt_string()?;
    let priority_level = cursor.u8()?;
    if priority_level > 9 {
        return err(format!("priority {priority_level} out of the JMS 0-9 range"));
    }
    let reply_to = cursor.opt_string()?;
    let expiration_millis = match cursor.u8()? {
        0 => None,
        1 => Some(cursor.u64()?),
        flag => return err(format!("bad expiration flag {flag}")),
    };
    let property_count = cursor.u32()?;
    let mut properties = BTreeMap::new();
    for _ in 0..property_count {
        let key = cursor.string()?;
        let value = cursor.value()?;
        properties.insert(key, value);
    }
    let body = cursor.bytes()?.to_vec();
    let trace_id = cursor.u64()?;
    let trace_origin_ns = cursor.u64()?;
    Ok(Message::from_stored_parts(
        id_raw,
        timestamp_millis,
        correlation_id,
        message_type,
        Priority::new(priority_level),
        reply_to,
        expiration_millis,
        properties,
        body.into(),
        trace_id,
        trace_origin_ns,
    ))
}

/// Encodes a [`JournalRecord::Publish`] without cloning the message.
pub fn encode_publish(topic: &str, message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + message.approximate_size());
    encode_publish_into(&mut out, topic, message);
    out
}

/// [`encode_publish`] appended to `out` — the dispatcher's per-message hot
/// path, where `out` is the journal's own frame buffer.
pub fn encode_publish_into(out: &mut Vec<u8>, topic: &str, message: &Message) {
    out.push(TAG_PUBLISH);
    put_str(out, topic);
    put_message(out, message);
}

/// A [`JournalRecord::DurableCheckpoint`] appended to `out` from borrowed
/// names: the dispatcher writes one every `checkpoint_every` deliveries.
pub(crate) fn encode_checkpoint_into(out: &mut Vec<u8>, topic: &str, name: &str, offset: u64) {
    out.push(TAG_DURABLE_CHECKPOINT);
    put_str(out, topic);
    put_str(out, name);
    out.extend_from_slice(&offset.to_le_bytes());
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
                put_str(out, topic);
            }
            JournalRecord::Publish { topic, message } => encode_publish_into(out, topic, message),
            JournalRecord::DurableRegistered { topic, name, filter } => {
                out.push(TAG_DURABLE_REGISTERED);
                put_str(out, topic);
                put_str(out, name);
                put_filter(out, filter);
            }
            JournalRecord::DurableCheckpoint { topic, name, offset } => {
                encode_checkpoint_into(out, topic, name, *offset);
            }
            JournalRecord::DurableUnsubscribed { topic, name } => {
                out.push(TAG_DURABLE_UNSUBSCRIBED);
                put_str(out, topic);
                put_str(out, name);
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
        let mut cursor = Cursor { buf: payload, at: 0 };
        let record = match cursor.u8()? {
            TAG_TOPIC_CREATED => JournalRecord::TopicCreated { topic: cursor.string()? },
            TAG_PUBLISH => {
                let topic = cursor.string()?;
                let message = read_message(&mut cursor)?;
                JournalRecord::Publish { topic, message }
            }
            TAG_DURABLE_REGISTERED => JournalRecord::DurableRegistered {
                topic: cursor.string()?,
                name: cursor.string()?,
                filter: cursor.filter()?,
            },
            TAG_DURABLE_CHECKPOINT => JournalRecord::DurableCheckpoint {
                topic: cursor.string()?,
                name: cursor.string()?,
                offset: cursor.u64()?,
            },
            TAG_DURABLE_UNSUBSCRIBED => JournalRecord::DurableUnsubscribed {
                topic: cursor.string()?,
                name: cursor.string()?,
            },
            tag => return err(format!("unknown record tag {tag}")),
        };
        cursor.finish()?;
        Ok(record)
    }
}

/// A journal write failure is fatal: the broker cannot honor the
/// durability contract without its write-ahead log.
const APPEND_FAILED: &str = "write-ahead journal append failed; cannot continue durably";

impl BrokerInner {
    /// Appends one record to the journal — a commit of its own, for the
    /// rare records (topic, durable registration, checkpoint) — and returns
    /// the record's journal offset. `payload` writes the record into the
    /// journal's frame buffer. Without persistence this is a no-op and
    /// `payload` is never called, so a broker with no journal does not
    /// serialise what it would not store.
    pub(crate) fn append_record(&self, payload: impl FnOnce(&mut Vec<u8>)) -> Option<u64> {
        let mut journal = self.journal.as_ref()?.lock();
        let offset = journal.batch(|batch| batch.append_with(payload)).expect(APPEND_FAILED);
        Some(offset)
    }

    /// The write-ahead step of a run (DESIGN.md §3.3b "Group commit"):
    /// appends the publish record of `first` and of every message of
    /// `rest` that is neither journalled yet nor expired, under one journal
    /// lock and as one commit, notes each one's offset on it and returns
    /// `first`'s. When this returns, every live message of the run is on
    /// the file (per the fsync policy) and none of them has been
    /// delivered. `None` without persistence.
    pub(crate) fn append_publishes(
        &self,
        first: &Queued,
        rest: &mut VecDeque<Queued>,
    ) -> Option<u64> {
        let mut journal = self.journal.as_ref()?.lock();
        let offset = journal
            .batch(|batch| {
                let mut append = |queued: &Queued| {
                    batch.append_with(|out| {
                        encode_publish_into(out, &queued.topic.name, &queued.message);
                    })
                };
                let offset = append(first)?;
                for queued in rest.iter_mut() {
                    if queued.publish_offset.is_none() && !queued.message.is_expired() {
                        queued.publish_offset = Some(append(queued)?);
                    }
                }
                Ok(offset)
            })
            .expect(APPEND_FAILED);
        Some(offset)
    }

    /// Forces the journal to stable storage (no-op without persistence).
    pub(crate) fn sync_journal(&self) {
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock();
            journal.sync().expect("write-ahead journal sync failed; cannot continue durably");
        }
    }
}

/// Replays the journal into the recovered topics' names (in order) and
/// durable subscriptions, from which `Broker::start` builds the topics: every
/// publish logged after a durable subscription's registration but not
/// covered by one of its checkpoint records goes back into its retained
/// backlog (at-least-once re-delivery). Expired messages and backlog beyond
/// `durable_buffer_capacity` are discarded, mirroring live behaviour.
pub(crate) fn recover_topics(
    journal: &Journal,
    config: &BrokerConfig,
    live_flags: &LiveFlags,
) -> Vec<(String, Subscriptions)> {
    struct DurableRecovery {
        filter: Filter,
        /// `(journal offset, message)` publishes awaiting a checkpoint.
        backlog: VecDeque<(u64, Arc<Message>)>,
    }

    // By name, so that which topics get a metric series of their own does
    // not depend on the run.
    let mut recovered: BTreeMap<String, HashMap<String, DurableRecovery>> = BTreeMap::new();
    for item in journal.replay(journal.first_offset()) {
        let (offset, payload) = item.expect("failed to read back the write-ahead journal");
        let record = JournalRecord::decode(&payload).unwrap_or_else(|e| {
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
    }

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
            retained.drain(..retained.len().saturating_sub(config.durable_buffer_capacity));
            let state =
                DurableState { name, retained: Mutex::new(retained), connection: Mutex::new(None) };
            subs.add(Arc::new(state).subscription(recovery.filter, live_flags.next()));
        }
        topics.push((topic_name, subs));
    }
    topics
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn publish_roundtrips_full_message() {
        let message = Message::builder()
            .correlation_id("#42")
            .message_type("quote")
            .priority(Priority::new(7))
            .reply_to("replies")
            .property("symbol", "ACME")
            .property("price", 49.5)
            .property("urgent", true)
            .property("volume", 1_000_000i64)
            .body(&b"opaque payload"[..])
            .build();
        let record = JournalRecord::Publish { topic: "stocks".into(), message: message.clone() };
        let decoded = JournalRecord::decode(&record.encode()).unwrap();
        match decoded {
            JournalRecord::Publish { topic, message: recovered } => {
                assert_eq!(topic, "stocks");
                assert_eq!(recovered.id(), message.id());
                assert_eq!(recovered.timestamp_millis(), message.timestamp_millis());
                assert_eq!(recovered.trace_id(), message.trace_id());
                assert_eq!(recovered.trace_origin_ns(), message.trace_origin_ns());
                assert_eq!(recovered, message);
            }
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn encode_publish_matches_record_encoding() {
        let message = Message::builder().property("k", 1i64).body(&b"x"[..]).build();
        let via_record =
            JournalRecord::Publish { topic: "t".into(), message: message.clone() }.encode();
        assert_eq!(encode_publish("t", &message), via_record);
    }

    #[test]
    fn without_a_journal_no_payload_is_built() {
        let broker = crate::Broker::start(BrokerConfig::default());
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
