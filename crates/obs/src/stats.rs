//! Stats structs declared together with their registry export.
//!
//! A component's counters live in a plain struct (`AtomicU64` fields
//! when shared across threads, `u64` when owned). The [`stats!`] macro
//! declares that struct and generates its `export_into` from the same
//! field list, so each metric's name is written exactly once: as the
//! field name.
//!
//! [`stats!`]: crate::stats

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::LatencyHistogram;
use crate::registry::Registry;

/// A field type [`stats!`](crate::stats) can export. The metric kind
/// follows the type: `AtomicU64` and `u64` are counters,
/// [`LatencyHistogram`] is a histogram.
pub trait Metric {
    /// What one read of the field yields.
    type Value;
    /// Reads the field (one relaxed load for an atomic).
    fn read(&self) -> Self::Value;
    /// Writes a read value under `name`. Absolute, so a re-export
    /// overwrites rather than accumulates.
    fn publish(value: &Self::Value, registry: &mut Registry, name: &str);
}

impl Metric for AtomicU64 {
    type Value = u64;
    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
    fn publish(value: &u64, registry: &mut Registry, name: &str) {
        registry.counter_set(name, *value);
    }
}

impl Metric for u64 {
    type Value = u64;
    fn read(&self) -> u64 {
        *self
    }
    fn publish(value: &u64, registry: &mut Registry, name: &str) {
        registry.counter_set(name, *value);
    }
}

impl Metric for LatencyHistogram {
    type Value = LatencyHistogram;
    fn read(&self) -> LatencyHistogram {
        self.clone()
    }
    fn publish(value: &LatencyHistogram, registry: &mut Registry, name: &str) {
        registry.histogram_set(name, value.clone());
    }
}

/// Declares a stats struct and its `export_into` in one place.
///
/// Every field of the struct body is a metric named after the field:
/// `export_into(registry, prefix)` publishes field `f` as `<prefix>_f`,
/// with the kind given by the field's [`Metric`] type. Fields are read
/// once each, in declaration order, before any is published, so
/// declaration order is read order. Doc comments, attributes and
/// `derive`s pass through unchanged. Two optional tails cover what does
/// not fit the pattern:
///
/// * `by_hand { fields }` — more struct fields, not exported by name;
/// * `then |stats, registry, prefix| { ... }` — runs at the end of
///   `export_into` with `stats` bound to `self` and each declared
///   field's read value in scope under the field's name, so a derived
///   metric reuses the same reads.
///
/// ```
/// use std::sync::atomic::AtomicU64;
///
/// tre_obs::stats! {
///     /// Queue counters.
///     #[derive(Debug, Default)]
///     pub struct QueueStats {
///         /// Items pushed.
///         pub pushed: AtomicU64,
///         /// Items popped.
///         pub popped: AtomicU64,
///     }
///     then |_stats, registry, prefix| {
///         let depth = pushed.saturating_sub(popped) as i64;
///         registry.gauge_set(&format!("{prefix}_depth"), depth);
///     }
/// }
///
/// let stats = QueueStats::default();
/// stats.pushed.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// let mut registry = tre_obs::Registry::new();
/// stats.export_into(&mut registry, "queue");
/// assert_eq!(registry.counter("queue_pushed"), 3);
/// assert_eq!(registry.gauge("queue_depth"), 3);
/// ```
#[macro_export]
macro_rules! stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
        $( by_hand { $( $(#[$xmeta:meta])* $xvis:vis $xfield:ident : $xty:ty ),* $(,)? } )?
        $( then |$this:ident, $registry:ident, $prefix:ident| $then:block )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $fty, )*
            $($( $(#[$xmeta])* $xvis $xfield : $xty, )*)?
        }

        impl $name {
            /// Publishes every declared field into a shared registry
            /// as `<prefix>_<field>`. Fields are read once each, in
            /// declaration order, before any is published. Absolute
            /// values, so re-export overwrites.
            $vis fn export_into(&self, registry: &mut $crate::Registry, prefix: &str) {
                $( let $field = <$fty as $crate::Metric>::read(&self.$field); )*
                $(
                    let name = format!("{prefix}_{}", stringify!($field));
                    <$fty as $crate::Metric>::publish(&$field, registry, &name);
                )*
                $(
                    let ($this, $registry, $prefix) = (self, registry, prefix);
                    $then
                )?
            }
        }
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::{LatencyHistogram, Registry};

    crate::stats! {
        /// Counters of a test component. The crate re-exports this type
        /// under `cfg(test)` and the struct denies `missing_docs`, so
        /// the build fails if a doc comment does not reach a field.
        #[derive(Debug, Default)]
        #[deny(missing_docs)]
        pub struct Declared {
            /// Shared counter.
            pub hits: AtomicU64,
            /// Owned counter.
            pub misses: u64,
            /// Latency histogram.
            pub latency: LatencyHistogram,
        }
        by_hand {
            /// Not exported by name.
            pub per_key: BTreeMap<u32, u64>,
        }
        then |stats, registry, prefix| {
            registry.gauge_set(&format!("{prefix}_balance"), hits as i64 - misses as i64);
            for (key, n) in &stats.per_key {
                registry.counter_set(&format!("{prefix}_key_{key}"), *n);
            }
        }
    }

    crate::stats! {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Plain {
            only: u64,
        }
    }

    fn kinds(registry: &Registry) -> Vec<String> {
        registry
            .render_prometheus()
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ").map(str::to_string))
            .collect()
    }

    #[test]
    fn kind_follows_field_type_and_name_is_field_name() {
        let mut stats = Declared::default();
        stats.hits.fetch_add(5, Ordering::Relaxed);
        stats.misses = 2;
        stats.latency.record(40);
        stats.per_key.insert(7, 1);
        let mut registry = Registry::new();
        stats.export_into(&mut registry, "c");
        assert_eq!(
            kinds(&registry),
            [
                "c_hits counter",
                "c_key_7 counter",
                "c_misses counter",
                "c_balance gauge",
                "c_latency histogram",
            ]
        );
        assert_eq!(registry.counter("c_hits"), 5);
        assert_eq!(registry.counter("c_misses"), 2);
        assert_eq!(registry.gauge("c_balance"), 3, "then-block sees the reads");
        assert_eq!(registry.histogram("c_latency").unwrap().count(), 1);

        // Absolute sets: a second export does not double-count.
        stats.export_into(&mut registry, "c");
        assert_eq!(registry.counter("c_hits"), 5);
        assert_eq!(registry.histogram("c_latency").unwrap().count(), 1);
    }

    #[test]
    fn derives_pass_through_and_by_hand_tail_is_optional() {
        let plain = Plain { only: 9 };
        assert_eq!(plain, plain.clone());
        assert_eq!(format!("{plain:?}"), "Plain { only: 9 }");
        let mut registry = Registry::new();
        plain.export_into(&mut registry, "p");
        assert_eq!(kinds(&registry), ["p_only counter"]);
    }
}
