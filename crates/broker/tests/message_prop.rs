//! Property test of the message's property store against a `BTreeMap`
//! oracle: for any sequence of `MessageBuilder::property` calls, with a
//! builder clone anywhere in it (a template finished per message), the
//! built message answers `property`, iterates `properties` and counts them
//! as a map fed the same calls does. `PROPTEST_CASES` sets the case count
//! (256 by default).

use proptest::prelude::*;
use rjms_broker::Message;
use rjms_selector::Value;
use std::collections::BTreeMap;

/// Names of 0–40 bytes, multi-byte characters included, drawn from few
/// enough letters, or from a short fixed list, that a name often repeats.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ab€]{0,14}",
        "[a-z_é𝄞]{0,40}".prop_map(|mut name| {
            while name.len() > 40 {
                name.pop();
            }
            name
        }),
        prop::sample::select(vec![
            String::new(),
            "n".repeat(21),
            "n".repeat(22),
            "n".repeat(23),
            "x".repeat(21) + "é",
            "x".repeat(20) + "€",
        ]),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,8}".prop_map(Value::Str),
    ]
}

proptest! {
    #[test]
    fn the_property_store_is_a_sorted_map(
        calls in prop::collection::vec((name_strategy(), value_strategy()), 0..24),
        clone_at in 0usize..24,
        probes in prop::collection::vec(name_strategy(), 0..8),
    ) {
        let mut oracle = BTreeMap::new();
        let mut builder = Message::builder();
        for (i, (name, value)) in calls.iter().enumerate() {
            if i == clone_at {
                builder = builder.clone();
            }
            builder = builder.property(name, value.clone());
            oracle.insert(name.clone(), value.clone());
        }
        let message = builder.build();
        prop_assert_eq!(message.properties().len(), oracle.len());
        prop_assert!(message.properties().map(|(name, value)| (name.to_owned(), value.clone()))
            .eq(oracle.clone()));
        for name in calls.iter().map(|(name, _)| name).chain(&probes) {
            prop_assert_eq!(message.property(name), oracle.get(name));
        }
    }
}
