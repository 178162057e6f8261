//! One list of named `u64` counters per statistics struct.
//!
//! Every statistics struct of the simulator (`MemoryStats` here,
//! `CoreStats` in `br-ooo`, `BrStats` in `br-core`, and the run result
//! that nests them in `br-sim`) declares its counters once, with
//! [`counters!`](crate::counters!). The list is the single source for every
//! generic view of the statistics: the named export of `counters.json`,
//! interval deltas for telemetry samples, and the weighted average over
//! SimPoint regions. A counter added to a struct's list shows up in all
//! three without further code.
//!
//! The trait lives in `br-mem` because it is the lowest crate that owns
//! statistics; the core and Branch Runahead crates build on it.

/// A statistics struct whose `u64` counters are listed by
/// [`counters!`](crate::counters!). Both visitors walk the same list in the
/// same order, so values read by one can be written back by the other.
pub trait Counters {
    /// Calls `f(name, value)` for every counter, in list order. Nested
    /// structs contribute dotted names (`l1.misses`).
    fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64));

    /// Calls `f(name, &mut value)` for every counter, in list order.
    fn for_each_counter_mut(&mut self, f: &mut dyn FnMut(&str, &mut u64));

    /// Every counter value, in list order.
    fn counter_values(&self) -> Vec<u64> {
        let mut values = Vec::new();
        self.for_each_counter(&mut |_, v| values.push(v));
        values
    }
}

/// An absent struct (e.g. no Branch Runahead attached) has no counters.
impl<T: Counters> Counters for Option<T> {
    fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64)) {
        if let Some(s) = self {
            s.for_each_counter(f);
        }
    }

    fn for_each_counter_mut(&mut self, f: &mut dyn FnMut(&str, &mut u64)) {
        if let Some(s) = self {
            s.for_each_counter_mut(f);
        }
    }
}

/// Writes `prefix.name` into `buf` and returns it.
fn dotted<'a>(buf: &'a mut String, prefix: &str, name: &str) -> &'a str {
    buf.clear();
    buf.push_str(prefix);
    buf.push('.');
    buf.push_str(name);
    buf
}

/// Visits a nested struct's counters under `prefix.`.
#[doc(hidden)]
pub fn visit_nested(prefix: &str, sub: &impl Counters, f: &mut dyn FnMut(&str, u64)) {
    let mut buf = String::new();
    sub.for_each_counter(&mut |n, v| f(dotted(&mut buf, prefix, n), v));
}

/// Mutable counterpart of [`visit_nested`].
#[doc(hidden)]
pub fn visit_nested_mut(prefix: &str, sub: &mut impl Counters, f: &mut dyn FnMut(&str, &mut u64)) {
    let mut buf = String::new();
    sub.for_each_counter_mut(&mut |n, v| f(dotted(&mut buf, prefix, n), v));
}

/// Implements [`Counters`] for a statistics struct from one list of its
/// fields, in three optional sections separated by `;`:
///
/// * plain `u64` fields, named as the field;
/// * `nested` fields whose type implements [`Counters`], named
///   `field.<inner name>`;
/// * one `keyed` map field `map[KEYS]` holding a `u64` per key, named
///   `map.<key.name()>`. Every key in `KEYS` is visited, present or not;
///   the mutable visitor inserts absent keys as zero.
///
/// ```
/// use br_mem::Counters;
///
/// #[derive(Default)]
/// struct Inner { hits: u64 }
/// br_mem::counters!(Inner { hits });
///
/// #[derive(Default)]
/// struct Outer { cycles: u64, l1: Inner }
/// br_mem::counters!(Outer { cycles; nested l1 });
///
/// let mut names = Vec::new();
/// Outer::default().for_each_counter(&mut |n, _| names.push(n.to_string()));
/// assert_eq!(names, ["cycles", "l1.hits"]);
/// ```
#[macro_export]
macro_rules! counters {
    ($ty:ty {
        $($field:ident),* $(,)?
        $(; nested $($sub:ident),+ $(,)?)?
        $(; keyed $map:ident [$keys:expr])?
    }) => {
        impl $crate::Counters for $ty {
            fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64)) {
                $(f(stringify!($field), self.$field);)*
                $($($crate::counters::visit_nested(stringify!($sub), &self.$sub, f);)+)?
                $(for key in $keys {
                    let name = format!(concat!(stringify!($map), ".{}"), key.name());
                    f(&name, self.$map.get(&key).copied().unwrap_or(0));
                })?
            }

            fn for_each_counter_mut(&mut self, f: &mut dyn FnMut(&str, &mut u64)) {
                $(f(stringify!($field), &mut self.$field);)*
                $($($crate::counters::visit_nested_mut(stringify!($sub), &mut self.$sub, f);)+)?
                $(for key in $keys {
                    let name = format!(concat!(stringify!($map), ".{}"), key.name());
                    f(&name, self.$map.entry(key).or_insert(0));
                })?
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Counters;
    use std::collections::HashMap;

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct Key(&'static str);

    impl Key {
        fn name(self) -> &'static str {
            self.0
        }
    }

    #[derive(Default)]
    struct Leaf {
        a: u64,
        b: u64,
    }
    crate::counters!(Leaf { a, b });

    #[derive(Default)]
    struct Tree {
        top: u64,
        left: Leaf,
        right: Option<Leaf>,
        by_key: HashMap<Key, u64>,
    }
    crate::counters!(Tree {
        top;
        nested left, right;
        keyed by_key[[Key("x"), Key("y")]]
    });

    fn names(t: &Tree) -> Vec<String> {
        let mut out = Vec::new();
        t.for_each_counter(&mut |n, _| out.push(n.to_string()));
        out
    }

    #[test]
    fn names_follow_the_list_and_nesting() {
        let mut t = Tree::default();
        assert_eq!(
            names(&t),
            ["top", "left.a", "left.b", "by_key.x", "by_key.y"]
        );
        t.right = Some(Leaf::default());
        assert_eq!(
            names(&t),
            ["top", "left.a", "left.b", "right.a", "right.b", "by_key.x", "by_key.y"]
        );
    }

    #[test]
    fn mutable_visit_matches_read_order() {
        let mut t = Tree::default();
        let mut next = 0;
        t.for_each_counter_mut(&mut |_, v| {
            next += 1;
            *v = next;
        });
        assert_eq!(t.counter_values(), [1, 2, 3, 4, 5]);
        assert_eq!((t.top, t.left.a, t.left.b), (1, 2, 3));
        assert_eq!(t.by_key[&Key("y")], 5);
    }
}
