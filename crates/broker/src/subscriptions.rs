//! A topic's subscriptions and the slot table their selectors share.
//!
//! Every application-property filter of a topic is a compiled
//! [`rjms_selector::Program`] whose identifiers are slots. The topic
//! interns the names its live selectors reference into one [`SlotTable`];
//! each entry keeps a copy of its program bound to that table. Per message
//! the dispatcher resolves the table once — one header read or property
//! lookup per name — and every filter of the scan reads the resolved
//! array. The scan itself stays brute force: each live filter is
//! evaluated and counted (paper §II-B).
//!
//! An entry holds what the scan reads of a subscription — its liveness
//! flag and its bound program — so that a filter costs the scan the entry,
//! the flag and the program's instructions, not a walk through the
//! subscription to its filter to its selector.
//!
//! The table lives inside [`Subscriptions`], under the topic's one lock,
//! so a bound program can never outlive the table it indexes. It holds
//! the names of the live subscriptions only: whatever removes entries or
//! replaces a filter rebuilds it and binds everyone again, so remote
//! clients subscribing with arbitrary identifiers cannot grow it beyond
//! what they keep open.

use crate::broker::Subscription;
use crate::durable::DurableState;
use crate::filter::Filter;
use crate::message::{HeaderField, Message};
use rjms_selector::program::{BoundProgram, Names};
use rjms_selector::ValueRef;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The distinct property names a topic's selectors reference.
#[derive(Default)]
pub(crate) struct SlotTable {
    names: Names,
    /// Per name: the header field it spells, if any. Filled up to the
    /// length of `names` after every bind.
    headers: Vec<Option<HeaderField>>,
}

/// Tables up to this size resolve into an array on the dispatcher's
/// stack; a larger one costs its messages a heap allocation each.
const INLINE_SLOTS: usize = 8;

/// A message's values for a [`SlotTable`], in slot order.
pub(crate) struct Resolved<'m> {
    inline: [Option<ValueRef<'m>>; INLINE_SLOTS],
    spill: Vec<Option<ValueRef<'m>>>,
    len: usize,
}

impl<'m> Resolved<'m> {
    pub(crate) fn as_slice(&self) -> &[Option<ValueRef<'m>>] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl SlotTable {
    pub(crate) fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    fn clear(&mut self) {
        self.names.clear();
        self.headers.clear();
    }

    /// `filter`'s program bound to this table, which interns the names it
    /// does not hold yet. `None` for everything but a selector.
    fn bind(&mut self, filter: &Filter) -> Option<BoundProgram> {
        let Filter::Selector(selector) = filter else { return None };
        let bound = selector.program().bind(&mut self.names);
        let new = &self.names.as_slice()[self.headers.len()..];
        self.headers.extend(new.iter().map(|name| HeaderField::named(name)));
        Some(bound)
    }

    /// Reads every interned name off `message`, once.
    pub(crate) fn resolve<'m>(&self, message: &'m Message) -> Resolved<'m> {
        let read = |(name, header): (&String, &Option<HeaderField>)| match header {
            Some(field) => message.header(*field),
            None => message.property(name).map(|v| v.as_ref()),
        };
        let slots = self.names.as_slice().iter().zip(&self.headers);
        let len = self.headers.len();
        let mut resolved = Resolved { inline: [None; INLINE_SLOTS], spill: Vec::new(), len };
        if len <= INLINE_SLOTS {
            for (value, slot) in resolved.inline.iter_mut().zip(slots) {
                *value = read(slot);
            }
        } else {
            resolved.spill = slots.map(read).collect();
        }
        resolved
    }
}

/// Whether `filter` forwards `message`: a selector by its program `bound`
/// to the table that `resolved` holds the message's values for.
fn matches(
    filter: &Filter,
    bound: &Option<BoundProgram>,
    message: &Message,
    resolved: &[Option<ValueRef<'_>>],
) -> bool {
    match bound {
        Some(program) => program.run(resolved).is_true(),
        None => filter.matches(message),
    }
}

/// A non-durable subscription on one topic. A wildcard subscription has
/// one entry per matching topic, each bound to that topic's table.
pub(crate) struct PlainEntry {
    pub(crate) sub: Arc<Subscription>,
    /// `sub.active`, one pointer nearer.
    active: Arc<AtomicBool>,
    bound: Option<BoundProgram>,
}

impl PlainEntry {
    /// Whether the subscriber handle is still alive.
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    pub(crate) fn matches(&self, message: &Message, resolved: &[Option<ValueRef<'_>>]) -> bool {
        matches(&self.sub.filter, &self.bound, message, resolved)
    }
}

/// A durable subscription and its current filter, which a reconnecting
/// consumer may replace.
pub(crate) struct DurableEntry {
    pub(crate) state: Arc<DurableState>,
    filter: Filter,
    bound: Option<BoundProgram>,
}

impl DurableEntry {
    pub(crate) fn filter(&self) -> &Filter {
        &self.filter
    }

    pub(crate) fn matches(&self, message: &Message, resolved: &[Option<ValueRef<'_>>]) -> bool {
        matches(&self.filter, &self.bound, message, resolved)
    }
}

/// Everything subscribed to one topic.
#[derive(Default)]
pub(crate) struct Subscriptions {
    plain: Vec<PlainEntry>,
    durables: Vec<DurableEntry>,
    slots: SlotTable,
}

impl Subscriptions {
    pub(crate) fn slots(&self) -> &SlotTable {
        &self.slots
    }

    pub(crate) fn plain(&self) -> &[PlainEntry] {
        &self.plain
    }

    pub(crate) fn durables(&self) -> &[DurableEntry] {
        &self.durables
    }

    pub(crate) fn durable(&self, name: &str) -> Option<&DurableEntry> {
        self.durables.iter().find(|d| d.state.name == name)
    }

    /// Subscriptions whose subscriber handle is still alive.
    pub(crate) fn live_plain(&self) -> usize {
        self.plain.iter().filter(|e| e.is_active()).count()
    }

    pub(crate) fn add_plain(&mut self, sub: Arc<Subscription>) {
        let bound = self.slots.bind(&sub.filter);
        self.plain.push(PlainEntry { active: Arc::clone(&sub.active), sub, bound });
    }

    pub(crate) fn add_durable(&mut self, state: Arc<DurableState>, filter: Filter) {
        let bound = self.slots.bind(&filter);
        self.durables.push(DurableEntry { state, filter, bound });
    }

    /// Drops the plain subscriptions whose subscriber is gone.
    pub(crate) fn prune(&mut self) {
        self.plain.retain(PlainEntry::is_active);
        self.rebind();
    }

    /// Drops every plain subscription (dispatcher shutdown).
    pub(crate) fn clear_plain(&mut self) {
        self.plain.clear();
        self.rebind();
    }

    /// Replaces the filter of the durable subscription `name`.
    pub(crate) fn set_durable_filter(&mut self, name: &str, filter: Filter) {
        if let Some(entry) = self.durables.iter_mut().find(|d| d.state.name == name) {
            entry.filter = filter;
            self.rebind();
        }
    }

    /// Removes the durable subscription `name`, if there is one.
    pub(crate) fn remove_durable(&mut self, name: &str) {
        self.durables.retain(|d| d.state.name != name);
        self.rebind();
    }

    /// Rebuilds the slot table from the entries that are left and binds
    /// each of them again: the table forgets names nobody references any
    /// more, which may renumber the ones that stay.
    fn rebind(&mut self) {
        self.slots.clear();
        for entry in &mut self.plain {
            entry.bound = self.slots.bind(&entry.sub.filter);
        }
        for entry in &mut self.durables {
            entry.bound = self.slots.bind(&entry.filter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::SubscriberQueue;
    use crate::message::Priority;
    use crossbeam::channel::bounded;
    use rjms_selector::{eval, parse};

    fn subscription(filter: Filter) -> Arc<Subscription> {
        let (sender, _) = bounded(1);
        let queue = SubscriberQueue { sender, wake: None };
        Arc::new(Subscription { filter, queue, active: Arc::new(AtomicBool::new(true)) })
    }

    fn selector(source: &str) -> Filter {
        Filter::selector(source).unwrap()
    }

    fn names(subs: &Subscriptions) -> &[String] {
        subs.slots.names.as_slice()
    }

    #[test]
    fn the_table_holds_each_name_once_in_order_of_first_use() {
        let mut subs = Subscriptions::default();
        subs.add_plain(subscription(Filter::None));
        subs.add_plain(subscription(Filter::correlation_id("#1").unwrap()));
        assert!(subs.slots().is_empty());
        subs.add_plain(subscription(selector("b = 1 AND a = 2")));
        subs.add_plain(subscription(selector("a = 1 AND JMSType = 'x' AND b > a")));
        assert_eq!(names(&subs), ["b", "a", "JMSType"]);
        let bound: Vec<bool> = subs.plain().iter().map(|e| e.bound.is_some()).collect();
        assert_eq!(bound, [false, false, true, true]);
    }

    #[test]
    fn a_prune_forgets_the_names_of_the_dead_and_rebinds_the_living() {
        let mut subs = Subscriptions::default();
        let dead = subscription(selector("gone = 1 AND kept = 2"));
        subs.add_plain(Arc::clone(&dead));
        subs.add_plain(subscription(selector("kept = 2 AND late = 3")));
        assert_eq!(names(&subs), ["gone", "kept", "late"]);
        dead.active.store(false, Ordering::Relaxed);
        subs.prune();
        assert_eq!(names(&subs), ["kept", "late"]);
        let message = Message::builder().property("kept", 2i64).property("late", 3i64).build();
        assert!(subs.plain()[0].matches(&message, subs.slots().resolve(&message).as_slice()));
        subs.clear_plain();
        assert!(subs.slots().is_empty());
    }

    /// Everything a bound filter can read, against the reference
    /// evaluator reading the same message by name.
    #[test]
    fn bound_evaluation_agrees_with_the_tree_walker() {
        let selectors = [
            "color = 'red'",
            "weight > 2 AND color <> 'blue'",
            "JMSPriority >= 7 OR JMSType = 'alert'",
            "JMSCorrelationID LIKE '#%' AND weight BETWEEN 1 AND 3",
            "JMSMessageID LIKE 'ID:%' AND JMSTimestamp > 0 AND JMSExpiration = 0",
            "missing IS NULL AND color IN ('red', 'green')",
            "weight * 2 = 6 OR NOT urgent",
        ];
        let messages = [
            Message::builder().build(),
            Message::builder().property("color", "red").property("weight", 3i64).build(),
            Message::builder()
                .property("color", "blue")
                .property("urgent", true)
                .priority(Priority::new(8))
                .correlation_id("#7")
                .build(),
            Message::builder().property("weight", 2.5).message_type("alert").build(),
        ];
        let mut subs = Subscriptions::default();
        for source in selectors {
            subs.add_plain(subscription(selector(source)));
        }
        for message in &messages {
            let resolved = subs.slots().resolve(message);
            for (entry, source) in subs.plain().iter().zip(selectors) {
                let reference = eval::matches(&parse(source).unwrap(), message);
                assert_eq!(entry.matches(message, resolved.as_slice()), reference, "{source}");
                assert_eq!(entry.sub.filter.matches(message), reference, "{source}");
            }
        }
    }

    #[test]
    fn a_table_larger_than_the_inline_array_spills_to_the_heap() {
        let mut subs = Subscriptions::default();
        let wide = (0..2 * INLINE_SLOTS).map(|i| format!("p{i} = {i}")).collect::<Vec<_>>();
        subs.add_plain(subscription(selector(&wide.join(" AND "))));
        subs.add_plain(subscription(selector(&format!("p{} = 0", 2 * INLINE_SLOTS - 1))));
        let mut message = Message::builder();
        for i in 0..2 * INLINE_SLOTS {
            message = message.property(format!("p{i}"), i as i64);
        }
        let message = message.build();
        let resolved = subs.slots().resolve(&message);
        assert_eq!(resolved.as_slice().len(), 2 * INLINE_SLOTS);
        assert!(subs.plain()[0].matches(&message, resolved.as_slice()));
        assert!(!subs.plain()[1].matches(&message, resolved.as_slice()));
    }
}
