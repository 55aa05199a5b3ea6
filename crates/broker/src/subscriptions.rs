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
//! What the scan reads of a subscription, plain or durable, is its 32-byte
//! [`ScanRow`] in the topic's *scan table*: a liveness flag (a cell of a
//! page of 64; a durable's is never cleared) and, for a selector that is one
//! comparison with a scalar literal, that comparison by value. The rows are
//! read front to back; the [`Entry`] beside one on a hit, for its [`Sink`],
//! or to run a filter that has no compact form.
//!
//! The table lives inside [`Subscriptions`], under the topic's one lock,
//! so a bound program can never outlive the table it indexes. It holds
//! the names of the live subscriptions only: whatever removes entries or
//! replaces a filter rebuilds it and binds everyone again, so remote
//! clients subscribing with arbitrary identifiers cannot grow it beyond
//! what they keep open.

use crate::broker::Subscription;
use crate::dispatch::SubscriberQueue;
use crate::durable::DurableState;
use crate::filter::Filter;
use crate::message::{HeaderField, Message};
use rjms_selector::program::{BoundProgram, CmpRow, Names};
use rjms_selector::ValueRef;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Liveness flags per page: two cache lines per this many subscriptions.
const PAGE_FLAGS: usize = 64;

/// One subscription's liveness flag, set until its subscriber is dropped or
/// found disconnected; subscription, subscriber and scan rows share the cell.
#[derive(Clone)]
pub(crate) struct LiveFlag {
    page: Arc<[AtomicBool; PAGE_FLAGS]>,
    index: u8,
}

impl LiveFlag {
    pub(crate) fn is_set(&self) -> bool {
        self.page[usize::from(self.index)].load(Ordering::Relaxed)
    }

    pub(crate) fn clear(&self) {
        self.page[usize::from(self.index)].store(false, Ordering::Relaxed);
    }
}

/// A broker's source of [`LiveFlag`]s: consecutive cells, so subscriptions
/// opened together sit side by side, and none twice: a cleared flag stays
/// cleared for whoever still holds it. A page is freed with its last holder.
pub(crate) struct LiveFlags {
    page: Arc<[AtomicBool; PAGE_FLAGS]>,
    used: u8,
}

impl Default for LiveFlags {
    fn default() -> Self {
        Self { page: Arc::new(std::array::from_fn(|_| AtomicBool::new(true))), used: 0 }
    }
}

impl LiveFlags {
    pub(crate) fn next(&mut self) -> LiveFlag {
        if usize::from(self.used) == PAGE_FLAGS {
            *self = Self::default();
        }
        self.used += 1;
        LiveFlag { page: Arc::clone(&self.page), index: self.used - 1 }
    }
}

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

/// Where a subscription's matches go: what is different about a durable
/// subscription is its sink, not its place in the scan.
pub(crate) enum Sink {
    /// A plain subscriber's queue.
    Plain(SubscriberQueue),
    /// A named durable subscription: its consumer's queue while one is
    /// connected, its retained buffer otherwise.
    Durable(Arc<DurableState>),
}

/// One subscription on one topic, with its filter's program bound to the
/// topic's table. A wildcard subscription is one `Subscription` in an entry
/// per matching topic.
pub(crate) struct Entry {
    pub(crate) sub: Arc<Subscription>,
    bound: Option<BoundProgram>,
}

/// What the dispatcher's scan reads of an [`Entry`].
pub(crate) struct ScanRow {
    /// `sub.active`.
    pub(crate) live: LiveFlag,
    /// `bound` by value ([`BoundProgram::as_row`]): the scan runs it instead.
    pub(crate) cmp: Option<CmpRow>,
}

impl Entry {
    /// The durable subscription this entry feeds; `None` for a plain one.
    fn durable(&self) -> Option<&Arc<DurableState>> {
        match &self.sub.sink {
            Sink::Plain(_) => None,
            Sink::Durable(state) => Some(state),
        }
    }

    fn row(&self) -> ScanRow {
        let cmp = self.bound.as_ref().and_then(BoundProgram::as_row);
        ScanRow { live: self.sub.active.clone(), cmp }
    }

    /// Whether the entry's filter forwards `message`: a selector by its
    /// program bound to the table that `resolved` holds the values for.
    pub(crate) fn matches(&self, message: &Message, resolved: &[Option<ValueRef<'_>>]) -> bool {
        match &self.bound {
            Some(program) => program.run(resolved).is_true(),
            None => self.sub.filter.matches(message),
        }
    }
}

/// Everything subscribed to one topic.
#[derive(Default)]
pub(crate) struct Subscriptions {
    entries: Vec<Entry>,
    /// The scan table: `rows[i]` is `entries[i].row()`.
    rows: Vec<ScanRow>,
    slots: SlotTable,
}

impl Subscriptions {
    pub(crate) fn slots(&self) -> &SlotTable {
        &self.slots
    }

    /// The subscriptions in subscription order, each behind its row.
    pub(crate) fn scan(&self) -> impl Iterator<Item = (&ScanRow, &Entry)> {
        self.rows.iter().zip(&self.entries)
    }

    /// The durable subscriptions, each with its current filter.
    pub(crate) fn durables(&self) -> impl Iterator<Item = (&Arc<DurableState>, &Filter)> {
        self.entries.iter().filter_map(|entry| Some((entry.durable()?, &entry.sub.filter)))
    }

    pub(crate) fn durable(&self, name: &str) -> Option<(&Arc<DurableState>, &Filter)> {
        self.durables().find(|(state, _)| state.name == name)
    }

    /// Plain subscriptions whose subscriber handle is still alive.
    pub(crate) fn live_plain(&self) -> usize {
        self.entries.iter().filter(|e| e.durable().is_none() && e.sub.active.is_set()).count()
    }

    /// Adds a subscription: a plain subscriber's, or a durable one
    /// ([`DurableState::subscription`]), whose `active` flag is never
    /// cleared: [`Self::remove_durable`] is its one way out of the scan.
    pub(crate) fn add(&mut self, sub: Arc<Subscription>) {
        let entry = Entry { bound: self.slots.bind(&sub.filter), sub };
        self.rows.push(entry.row());
        self.entries.push(entry);
    }

    /// Drops the plain subscriptions whose subscriber is gone.
    pub(crate) fn prune(&mut self) {
        self.entries.retain(|entry| entry.sub.active.is_set());
        self.rebind();
    }

    /// Drops every plain subscription (dispatcher shutdown).
    pub(crate) fn clear_plain(&mut self) {
        self.entries.retain(|entry| entry.durable().is_some());
        self.rebind();
    }

    /// Removes the durable subscription `name`, if there is one.
    pub(crate) fn remove_durable(&mut self, name: &str) {
        self.entries.retain(|entry| entry.durable().is_none_or(|d| d.name != name));
        self.rebind();
    }

    /// Rebuilds the slot table from the entries that are left and binds
    /// each of them again: the table forgets names nobody references any
    /// more, which may renumber the ones that stay; the scan table follows.
    fn rebind(&mut self) {
        self.slots.clear();
        self.rows.clear();
        for entry in &mut self.entries {
            entry.bound = self.slots.bind(&entry.sub.filter);
            self.rows.push(entry.row());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Priority;
    use crossbeam::channel::bounded;
    use rjms_selector::{eval, parse};

    fn subscription(filter: Filter) -> Arc<Subscription> {
        let (sender, _) = bounded(1);
        let sink = Sink::Plain(SubscriberQueue { sender, wake: None });
        Arc::new(Subscription { filter, sink, active: LiveFlags::default().next() })
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
        subs.add(subscription(Filter::None));
        subs.add(subscription(Filter::correlation_id("#1").unwrap()));
        assert!(subs.slots().is_empty());
        subs.add(subscription(selector("b = 1 AND a = 2")));
        subs.add(subscription(selector("a = 1 AND JMSType = 'x' AND b > a")));
        assert_eq!(names(&subs), ["b", "a", "JMSType"]);
        let bound: Vec<bool> = subs.entries.iter().map(|e| e.bound.is_some()).collect();
        assert_eq!(bound, [false, false, true, true]);
    }

    #[test]
    fn one_comparison_with_a_number_is_a_compact_row_and_nothing_else_is() {
        assert!(std::mem::size_of::<ScanRow>() <= 32, "{}", std::mem::size_of::<ScanRow>());
        let mut subs = Subscriptions::default();
        for i in 0..256 {
            subs.add(subscription(selector(&format!("key = {i}"))));
        }
        subs.add(subscription(Filter::correlation_id("#1").unwrap()));
        for other in ["color = 'red'", "key = 1 AND key < 2"] {
            subs.add(subscription(selector(other)));
        }
        let compact: Vec<bool> = subs.scan().map(|(row, _)| row.cmp.is_some()).collect();
        assert_eq!(compact.len(), 259);
        assert!(compact[..256].iter().all(|c| *c) && compact[256..].iter().all(|c| !*c));
    }

    /// A durable subscription is a row of the same table: scanned in
    /// subscription order, compact when a plain one would be, and neither a
    /// prune nor the dispatcher's exit takes it out.
    #[test]
    fn a_durable_subscription_has_a_row_like_the_plain_one_beside_it() {
        let mut subs = Subscriptions::default();
        subs.add(subscription(selector("key = 3")));
        let state = Arc::new(DurableState {
            name: "d".to_owned(),
            retained: Default::default(),
            connection: Default::default(),
        });
        let durable = |source| state.subscription(selector(source), LiveFlags::default().next());
        subs.add(durable("key = 3"));
        subs.add(subscription(selector("color = 'red'")));
        let compact: Vec<bool> = subs.scan().map(|(row, _)| row.cmp.is_some()).collect();
        assert_eq!(compact, [true, true, false]);
        assert_eq!((subs.live_plain(), subs.durables().count()), (2, 1));

        // A changed selector deletes and recreates the subscription.
        subs.remove_durable("d");
        subs.add(durable("color = 'red'"));
        let compact: Vec<bool> = subs.scan().map(|(row, _)| row.cmp.is_some()).collect();
        assert_eq!(compact, [true, false, false]);
        subs.prune();
        assert_eq!(subs.rows.len(), 3);
        subs.clear_plain();
        assert_eq!((subs.rows.len(), subs.durables().count()), (1, 1));
        assert_eq!(names(&subs), ["color"]);
        subs.remove_durable("d");
        assert!(subs.rows.is_empty() && subs.slots().is_empty());
    }

    #[test]
    fn flags_fill_one_page_after_the_other_and_no_cell_twice() {
        let mut flags = LiveFlags::default();
        let handed: Vec<LiveFlag> = (0..2 * PAGE_FLAGS + 1).map(|_| flags.next()).collect();
        for (at, flag) in handed.iter().enumerate() {
            assert!(flag.is_set());
            assert_eq!(usize::from(flag.index), at % PAGE_FLAGS);
            assert!(Arc::ptr_eq(&flag.page, &handed[at - at % PAGE_FLAGS].page));
        }
        assert!(!Arc::ptr_eq(&handed[0].page, &handed[PAGE_FLAGS].page));
        // A clone is the same cell; its neighbours are not.
        handed[1].clone().clear();
        assert!(!handed[1].is_set() && handed[0].is_set() && handed[2].is_set());
        // The source holds the page it is filling and no other.
        assert_eq!(Arc::strong_count(&handed[0].page), PAGE_FLAGS);
        assert_eq!(Arc::strong_count(&handed[2 * PAGE_FLAGS].page), 2);
    }

    #[test]
    fn a_prune_forgets_the_names_of_the_dead_and_rebinds_the_living() {
        let mut subs = Subscriptions::default();
        let dead = subscription(selector("gone = 1 AND kept = 2"));
        subs.add(Arc::clone(&dead));
        subs.add(subscription(selector("kept = 2 AND late = 3")));
        assert_eq!(names(&subs), ["gone", "kept", "late"]);
        dead.active.clear();
        assert_eq!(subs.live_plain(), 1);
        subs.prune();
        assert_eq!(names(&subs), ["kept", "late"]);
        assert_eq!((subs.entries.len(), subs.rows.len()), (1, 1));
        assert!(Arc::ptr_eq(&subs.rows[0].live.page, &subs.entries[0].sub.active.page));
        let message = Message::builder().property("kept", 2i64).property("late", 3i64).build();
        assert!(subs.entries[0].matches(&message, subs.slots().resolve(&message).as_slice()));
        subs.clear_plain();
        assert!(subs.slots().is_empty() && subs.rows.is_empty());
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
            "weight >= 3",
            "TRUE = urgent",
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
            subs.add(subscription(selector(source)));
        }
        for message in &messages {
            let resolved = subs.slots().resolve(message);
            for ((row, entry), source) in subs.scan().zip(selectors) {
                let reference = eval::matches(&parse(source).unwrap(), message);
                assert_eq!(entry.matches(message, resolved.as_slice()), reference, "{source}");
                let by_row = row.cmp.map(|cmp| cmp.run(resolved.as_slice()).is_true());
                assert_eq!(by_row.unwrap_or(reference), reference, "{source}");
                assert_eq!(entry.sub.filter.matches(message), reference, "{source}");
            }
        }
    }

    #[test]
    fn a_table_larger_than_the_inline_array_spills_to_the_heap() {
        let mut subs = Subscriptions::default();
        let wide = (0..2 * INLINE_SLOTS).map(|i| format!("p{i} = {i}")).collect::<Vec<_>>();
        subs.add(subscription(selector(&wide.join(" AND "))));
        subs.add(subscription(selector(&format!("p{} = 0", 2 * INLINE_SLOTS - 1))));
        let mut message = Message::builder();
        for i in 0..2 * INLINE_SLOTS {
            message = message.property(format!("p{i}"), i as i64);
        }
        let message = message.build();
        let resolved = subs.slots().resolve(&message);
        assert_eq!(resolved.as_slice().len(), 2 * INLINE_SLOTS);
        assert!(subs.entries[0].matches(&message, resolved.as_slice()));
        assert!(!subs.entries[1].matches(&message, resolved.as_slice()));
    }
}
