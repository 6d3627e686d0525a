//! Property tests for the fabric primitives: the [`SpanCarrier`]
//! binary codec round-trips and is total over hostile bytes, the
//! [`Payload`] copy-on-write handle never lets a writer disturb other
//! handles, [`SortedVecMap`] is observationally equivalent to
//! `BTreeMap` under arbitrary operation sequences, [`SeqSet`] answers
//! every insert as a `BTreeSet` does while keeping its ranges
//! canonical, and [`ObjectPath`] normalises and prefix-tests exactly
//! as the `String`-building definition it replaced.

use std::collections::{BTreeMap, BTreeSet};

use odp_fabric::{FabricError, ObjectPath, Payload, SeqSet, SortedVecMap, SpanCarrier};
use proptest::prelude::*;

/// The path algebra as it was written over `String`s — split, filter,
/// join; cover by `format!` — kept as the oracle.
mod string_paths {
    pub fn normalised(raw: &str) -> String {
        let parts: Vec<&str> = raw.split('/').filter(|s| !s.is_empty()).collect();
        parts.join("/")
    }

    pub fn covers(ancestor: &str, path: &str) -> bool {
        ancestor.is_empty() || path == ancestor || path.starts_with(&format!("{ancestor}/"))
    }
}

/// An arbitrary carrier, roots and children alike.
fn arb_carrier() -> impl Strategy<Value = SpanCarrier> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(trace_id, span_id, parent, has_parent)| SpanCarrier {
            trace_id,
            span_id,
            parent: has_parent.then_some(parent),
        },
    )
}

/// One step of the map model test.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Remove(u8),
    GetOrDefault(u8, u16),
    RetainEven,
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    (0u8..4, any::<u8>(), any::<u16>()).prop_map(|(tag, k, v)| match tag {
        0 => MapOp::Insert(k, v),
        1 => MapOp::Remove(k),
        2 => MapOp::GetOrDefault(k, v),
        _ => MapOp::RetainEven,
    })
}

/// Sequence numbers as a duplicate filter meets them: runs from 1,
/// a resumed sender's jump, the sequencer's assignment ids from
/// `u64::MAX / 2` up, and the end of the domain — each a small window,
/// so arrivals collide, touch and leave holes.
fn arb_seq() -> impl Strategy<Value = u64> {
    (0usize..5, 0u64..24).prop_map(|(window, offset)| {
        [0, 1_000, u64::MAX / 2, u64::MAX - 23, u64::MAX - 40][window] + offset
    })
}

proptest! {
    /// `SeqSet::insert` says what `BTreeSet::insert` says for any
    /// arrival order — duplicates, jumps and both ends of `u64`
    /// included — and the ranges stay sorted, disjoint, non-adjacent
    /// and exactly the model's contents.
    #[test]
    fn seq_set_matches_btreeset(arrivals in prop::collection::vec(arb_seq(), 0..96)) {
        let mut subject = SeqSet::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for seq in arrivals {
            prop_assert_eq!(subject.insert(seq), model.insert(seq), "insert({})", seq);
            for pair in subject.ranges().windows(2) {
                let (left, right) = (pair[0], pair[1]);
                // A gap of at least one number between neighbours.
                prop_assert!(
                    left.1.checked_add(1).is_some_and(|next| next < right.0),
                    "{:?} and {:?} overlap, touch or are out of order", left, right
                );
            }
        }
        let mut held = BTreeSet::new();
        for &(lo, hi) in subject.ranges() {
            prop_assert!(lo <= hi);
            held.extend(lo..=hi);
        }
        prop_assert_eq!(held, model);
    }

    /// Every carrier round-trips through the binary codec, consuming
    /// exactly the bytes it produced — including with trailing junk
    /// after the encoding.
    #[test]
    fn carrier_roundtrips(carrier in arb_carrier(), junk in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut buf = Vec::new();
        carrier.encode_into(&mut buf);
        let encoded_len = buf.len();
        buf.extend_from_slice(&junk);
        let (back, used) = SpanCarrier::decode_from(&buf).expect("decodes");
        prop_assert_eq!(back, carrier);
        prop_assert_eq!(used, encoded_len);
    }

    /// Every strict prefix of a valid encoding is a typed error.
    #[test]
    fn truncated_carriers_error_at_every_prefix(carrier in arb_carrier()) {
        let mut buf = Vec::new();
        carrier.encode_into(&mut buf);
        for cut in 0..buf.len() {
            prop_assert!(
                SpanCarrier::decode_from(&buf[..cut]).is_err(),
                "prefix of {} bytes decoded",
                cut
            );
        }
    }

    /// The decoder is total over arbitrary bytes, and anything it
    /// accepts re-encodes to exactly the consumed prefix (the codec has
    /// one canonical form).
    #[test]
    fn hostile_bytes_never_panic_and_accepts_are_canonical(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        match SpanCarrier::decode_from(&bytes) {
            Ok((carrier, used)) => {
                prop_assert!(used <= bytes.len());
                let mut re = Vec::new();
                carrier.encode_into(&mut re);
                prop_assert_eq!(re.as_slice(), &bytes[..used]);
            }
            Err(FabricError::Truncated { needed, have }) => {
                prop_assert!(have < needed);
                prop_assert_eq!(have, bytes.len());
            }
            Err(FabricError::BadTag { tag }) => {
                prop_assert_eq!(tag, bytes[16]);
                prop_assert!(tag > 1);
            }
        }
    }

    /// Cloning a payload shares the allocation; writing through one
    /// handle detaches it and never disturbs the others, regardless of
    /// the contents or the edit.
    #[test]
    fn payload_cow_isolates_writers(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        extra in any::<u8>(),
    ) {
        let original = Payload::from_vec(bytes.clone());
        let reader = original.clone();
        let mut writer = original.clone();
        prop_assert!(original.ptr_eq(&reader) && original.ptr_eq(&writer));
        prop_assert_eq!(original.handle_count(), 3);

        writer.to_mut().push(extra);
        prop_assert!(!original.ptr_eq(&writer), "write must detach");
        prop_assert!(original.ptr_eq(&reader), "readers keep sharing");
        prop_assert_eq!(original.as_slice(), bytes.as_slice());
        prop_assert_eq!(reader.as_slice(), bytes.as_slice());
        let mut expect = bytes.clone();
        expect.push(extra);
        prop_assert_eq!(writer.as_slice(), expect.as_slice());
        prop_assert_eq!(writer.into_vec(), expect);
    }

    /// Payload equality, ordering and hashing follow the bytes, not the
    /// allocation lineage.
    #[test]
    fn payload_compares_by_content(
        a in prop::collection::vec(any::<u8>(), 0..32),
        b in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let pa = Payload::from_slice(&a);
        let pb = Payload::from_slice(&b);
        prop_assert_eq!(pa == pb, a == b);
        prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
        prop_assert_eq!(pa.clone(), pa.clone());
    }

    /// A `SortedVecMap` driven by an arbitrary operation sequence holds
    /// exactly what a `BTreeMap` holds, in the same iteration order.
    #[test]
    fn sorted_vec_map_matches_btreemap(ops in prop::collection::vec(arb_map_op(), 0..64)) {
        let mut subject: SortedVecMap<u8, u16> = SortedVecMap::new();
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(subject.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(subject.remove(&k), model.remove(&k));
                }
                MapOp::GetOrDefault(k, v) => {
                    let slot = subject.get_mut_or_default(k);
                    *slot = slot.wrapping_add(v);
                    let m = model.entry(k).or_default();
                    *m = m.wrapping_add(v);
                }
                MapOp::RetainEven => {
                    subject.retain(|k, _| k % 2 == 0);
                    model.retain(|k, _| k % 2 == 0);
                }
            }
            prop_assert_eq!(subject.len(), model.len());
        }
        let got: Vec<(u8, u16)> = subject.iter().map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(u8, u16)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            subject.first_key_value().map(|(&k, &v)| (k, v)),
            model.first_key_value().map(|(&k, &v)| (k, v))
        );
        for k in 0..=u8::MAX {
            prop_assert_eq!(subject.get(&k), model.get(&k));
            prop_assert_eq!(subject.contains_key(&k), model.contains_key(&k));
        }
    }

    /// `new` lands on the normal form the string algebra defines, and
    /// is idempotent: a normalised name passes through unchanged.
    #[test]
    fn path_new_normalises_once(raw in "[a-z0-9/]*") {
        let path = ObjectPath::new(&raw);
        prop_assert_eq!(path.as_str(), string_paths::normalised(&raw));
        prop_assert_eq!(ObjectPath::new(path.as_str()), path.clone());
        prop_assert_eq!(path.depth(), path.as_str().split('/').filter(|s| !s.is_empty()).count());
    }

    /// `covers` by byte comparison is `covers` by `format!`, on
    /// unrelated names and on names that extend one another (where the
    /// component boundary decides: `a/b` covers `a/b/c`, not `a/bc`).
    #[test]
    fn path_covers_matches_the_string_definition(
        a in "[a-z0-9/]*",
        b in "[a-z0-9/]*",
        tail in "[ab/]{0,4}",
    ) {
        let extended = format!("{a}{tail}");
        for (x, y) in [(&a, &b), (&a, &extended), (&extended, &a)] {
            let want = string_paths::covers(
                &string_paths::normalised(x),
                &string_paths::normalised(y),
            );
            prop_assert_eq!(ObjectPath::new(x).covers(&ObjectPath::new(y)), want, "{} covers {}", x, y);
        }
        prop_assert!(ObjectPath::new("").covers(&ObjectPath::new(&b)), "root covers all");
    }
}
