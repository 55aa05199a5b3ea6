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
//! The topic's *scan table* cuts its subscriptions, plain and durable, in
//! subscription order, into runs: a run of consecutive selectors that are
//! each one comparison of the same slot, by the same operator, with a
//! scalar literal of the same kind is one [`CmpColumn`] of their literals,
//! which the scan evaluates with one read of the slot; any other run is
//! evaluated entry by entry. An [`Entry`] is read on a hit, for its
//! [`Sink`], or to run a filter that has no compact form. Liveness is not
//! read per row: clearing a [`LiveFlag`] counts one more clear broker-wide
//! ([`LiveFlags::cleared`]), and a topic that has not been pruned since the
//! count last moved is pruned before its next message.
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
use rjms_selector::program::{BoundProgram, CmpColumn, Names};
use rjms_selector::ValueRef;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One subscription's liveness flag, set until its subscriber is dropped or
/// found disconnected; subscription and subscriber share the cell, which is
/// freed with its last holder and so never reused: a cleared flag stays
/// cleared for whoever still holds it.
#[derive(Clone)]
pub(crate) struct LiveFlag {
    cell: Arc<AtomicBool>,
    /// [`LiveFlags::cleared`] of the broker that handed it out.
    cleared: Arc<AtomicU64>,
}

impl LiveFlag {
    pub(crate) fn is_set(&self) -> bool {
        #[cfg(test)]
        tests::FLAG_LOADS.with(|loads| loads.set(loads.get() + 1));
        self.cell.load(Ordering::Relaxed)
    }

    /// How many liveness flags this thread has read (test builds).
    #[cfg(test)]
    pub(crate) fn loads() -> u64 {
        tests::FLAG_LOADS.with(std::cell::Cell::get)
    }

    /// Clears the flag; the first clear is counted in [`LiveFlags::cleared`].
    pub(crate) fn clear(&self) {
        if self.cell.swap(false, Ordering::Relaxed) {
            // ORD: Release — a dispatcher that reads the new count with
            // Acquire (`dispatch::run`) then finds this cell cleared.
            self.cleared.fetch_add(1, Ordering::Release);
        }
    }
}

/// A broker's source of [`LiveFlag`]s.
#[derive(Default)]
pub(crate) struct LiveFlags {
    cleared: Arc<AtomicU64>,
}

impl LiveFlags {
    pub(crate) fn next(&self) -> LiveFlag {
        LiveFlag { cell: Arc::new(AtomicBool::new(true)), cleared: Arc::clone(&self.cleared) }
    }

    /// How many of the flags handed out have been cleared: while it stands
    /// still, no subscription has gone.
    pub(crate) fn cleared(&self) -> &AtomicU64 {
        &self.cleared
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

impl Entry {
    /// The durable subscription this entry feeds; `None` for a plain one.
    fn durable(&self) -> Option<&Arc<DurableState>> {
        match &self.sub.sink {
            Sink::Plain(_) => None,
            Sink::Durable(state) => Some(state),
        }
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

/// Consecutive entries that the scan evaluates one way.
struct Run {
    /// Where they are in `Subscriptions::entries`.
    entries: Range<usize>,
    /// Their selectors as one column, when each is a compact row
    /// ([`BoundProgram::as_row`]) of one shape; `None`: each entry runs its
    /// own filter, as none of them has a compact row.
    column: Option<CmpColumn>,
}

/// Everything subscribed to one topic.
#[derive(Default)]
pub(crate) struct Subscriptions {
    entries: Vec<Entry>,
    /// The scan table: `entries` cut into runs, in order.
    runs: Vec<Run>,
    slots: SlotTable,
}

impl Subscriptions {
    pub(crate) fn slots(&self) -> &SlotTable {
        &self.slots
    }

    /// How many subscriptions the scan evaluates per message: all of them.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The runs in subscription order: each one's column, if it has one,
    /// and its entries.
    pub(crate) fn scan(&self) -> impl Iterator<Item = (Option<&CmpColumn>, &[Entry])> {
        self.runs.iter().map(|run| (run.column.as_ref(), &self.entries[run.entries.clone()]))
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
    /// It extends the last run or opens a new one.
    pub(crate) fn add(&mut self, sub: Arc<Subscription>) {
        let bound = self.slots.bind(&sub.filter);
        let row = bound.as_ref().and_then(BoundProgram::as_row);
        self.entries.push(Entry { sub, bound });
        let end = self.entries.len();
        if let Some(run) = self.runs.last_mut() {
            let extends = match (&mut run.column, row) {
                (Some(column), Some(row)) => column.push(row).is_ok(),
                (column, row) => column.is_none() && row.is_none(),
            };
            if extends {
                run.entries.end = end;
                return;
            }
        }
        self.runs.push(Run { entries: end - 1..end, column: row.map(CmpColumn::new) });
    }

    /// Drops the plain subscriptions whose subscriber is gone; rebinds only
    /// when it found one.
    pub(crate) fn prune(&mut self) {
        let before = self.entries.len();
        self.entries.retain(|entry| entry.sub.active.is_set());
        if self.entries.len() < before {
            self.rebind();
        }
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

    /// Rebuilds the slot table from the entries that are left and adds each
    /// of them again: the table forgets names nobody references any more,
    /// which may renumber the ones that stay; the runs follow.
    fn rebind(&mut self) {
        self.slots.clear();
        self.runs.clear();
        for entry in std::mem::take(&mut self.entries) {
            self.add(entry.sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Priority;
    use crossbeam::channel::bounded;
    use rjms_selector::{eval, parse};
    use std::cell::Cell;

    thread_local! {
        /// [`LiveFlag::loads`].
        pub(super) static FLAG_LOADS: Cell<u64> = const { Cell::new(0) };
    }

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

    /// The scan table's runs: whether each is a column, and its length.
    fn runs(subs: &Subscriptions) -> Vec<(bool, usize)> {
        subs.scan().map(|(column, entries)| (column.is_some(), entries.len())).collect()
    }

    /// Which entries the scan finds `message` matches, evaluated as the
    /// dispatcher does: a column at once, any other run entry by entry.
    fn scanned(subs: &Subscriptions, message: &Message) -> Vec<bool> {
        let resolved = subs.slots().resolve(message);
        let resolved = resolved.as_slice();
        let mut hits = Vec::new();
        for (column, entries) in subs.scan() {
            let first = hits.len();
            match column {
                Some(column) => {
                    hits.resize(first + entries.len(), false);
                    column.run(resolved, |at| hits[first + at] = true);
                }
                None => hits.extend(entries.iter().map(|e| e.matches(message, resolved))),
            }
        }
        hits
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

    /// `add` extends the last run with a compact row of its shape (one slot,
    /// one operator, one literal kind) or with a filter that has no compact
    /// form, and opens a new run for anything else.
    #[test]
    fn consecutive_comparisons_of_one_shape_are_one_column_and_nothing_else_is() {
        let mut subs = Subscriptions::default();
        for i in 0..256 {
            subs.add(subscription(selector(&format!("key = {i}"))));
        }
        subs.add(subscription(Filter::correlation_id("#1").unwrap()));
        for other in ["color = 'red'", "key = 1 AND key < 2"] {
            subs.add(subscription(selector(other)));
        }
        for other in ["key > 1", "2 < key", "key > 2.5", "other > 1", "key > 3", "key > 4"] {
            subs.add(subscription(selector(other)));
        }
        subs.add(subscription(Filter::None));
        let expected =
            [(true, 256), (false, 3), (true, 2), (true, 1), (true, 1), (true, 2), (false, 1)];
        assert_eq!(runs(&subs), expected);
        assert_eq!(subs.len(), 266);
    }

    /// A durable subscription is a row of the same table: scanned in
    /// subscription order, in a column when a plain one would be, and
    /// neither a prune nor the dispatcher's exit takes it out.
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
        assert_eq!(runs(&subs), [(true, 2), (false, 1)]);
        assert_eq!((subs.live_plain(), subs.durables().count()), (2, 1));

        // A changed selector deletes and recreates the subscription.
        subs.remove_durable("d");
        subs.add(durable("color = 'red'"));
        assert_eq!(runs(&subs), [(true, 1), (false, 2)]);
        subs.prune();
        assert_eq!(subs.len(), 3);
        subs.clear_plain();
        assert_eq!((runs(&subs), subs.durables().count()), (vec![(false, 1)], 1));
        assert_eq!(names(&subs), ["color"]);
        subs.remove_durable("d");
        assert!(subs.runs.is_empty() && subs.slots().is_empty());
    }

    #[test]
    fn a_flag_s_first_clear_is_counted_for_its_broker() {
        let (flags, other) = (LiveFlags::default(), LiveFlags::default());
        let handed = [flags.next(), flags.next(), other.next()];
        assert!(handed.iter().all(LiveFlag::is_set));
        // A clone is the same cell; the other flags are not.
        handed[0].clone().clear();
        assert!(!handed[0].is_set() && handed[1].is_set() && handed[2].is_set());
        handed[0].clear();
        handed[1].clear();
        let cleared = |flags: &LiveFlags| flags.cleared().load(Ordering::Relaxed);
        assert_eq!((cleared(&flags), cleared(&other)), (2, 0));
    }

    #[test]
    fn a_prune_forgets_the_names_of_the_dead_and_rebinds_the_living() {
        let mut subs = Subscriptions::default();
        let dead = subscription(selector("gone = 1 AND kept = 2"));
        subs.add(Arc::clone(&dead));
        subs.add(subscription(selector("kept = 2 AND late = 3")));
        assert_eq!(names(&subs), ["gone", "kept", "late"]);
        // A prune that finds nobody gone leaves the table as it is.
        let entries = subs.entries.as_ptr();
        subs.prune();
        assert_eq!(subs.entries.as_ptr(), entries);
        dead.active.clear();
        assert_eq!(subs.live_plain(), 1);
        subs.prune();
        assert_eq!(names(&subs), ["kept", "late"]);
        assert_eq!((subs.entries.len(), subs.runs.len()), (1, 1));
        let message = Message::builder().property("kept", 2i64).property("late", 3i64).build();
        assert_eq!(scanned(&subs, &message), [true]);
        subs.clear_plain();
        assert!(subs.slots().is_empty() && subs.runs.is_empty());
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
        assert_eq!(runs(&subs), [(false, 7), (true, 1), (true, 1)]);
        for message in &messages {
            let resolved = subs.slots().resolve(message);
            let references: Vec<bool> =
                selectors.iter().map(|s| eval::matches(&parse(s).unwrap(), message)).collect();
            for ((entry, source), reference) in subs.entries.iter().zip(selectors).zip(&references)
            {
                assert_eq!(entry.matches(message, resolved.as_slice()), *reference, "{source}");
                assert_eq!(entry.sub.filter.matches(message), *reference, "{source}");
            }
            assert_eq!(scanned(&subs, message), references);
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
