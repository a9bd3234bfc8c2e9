//! Slot wire format: how flow entries are laid out in DRAM bursts.
//!
//! A bucket holds `K` fixed-width entry slots, back to back. Each slot is
//! `[len: u8][key bytes][zero padding]`; `len == 0` marks a free slot
//! (DRAM's all-zero reset state is therefore "empty bucket", which is why
//! the simulator never needs to initialise 512 MB of storage). A slot of
//! `slot_bytes` holds a key of 1 to `slot_bytes − 1` bytes.
//!
//! This is the one slot format: [`HashCamTable`](crate::HashCamTable)
//! keeps each resident bucket in it, so a bucket's slots are its DRAM
//! bytes before burst padding, and Flow Match searches the bucket a read
//! returns with the same [`find_key`] the table searches its buckets
//! with.

use flowlut_traffic::FlowKey;

use crate::error::InsertError;

/// Refuses a key that no `slot_bytes`-wide slot can hold: the empty
/// key, which would read back as a free slot, and any key of
/// `slot_bytes` bytes or more.
///
/// # Errors
///
/// [`InsertError::KeyDoesNotFit`] for such a key.
pub fn check_fit(key: &FlowKey, slot_bytes: usize) -> Result<(), InsertError> {
    if !fits(key.len(), slot_bytes) {
        return Err(InsertError::KeyDoesNotFit {
            key_bytes: key.len(),
            slot_bytes,
        });
    }
    Ok(())
}

/// `true` when a `slot_bytes`-wide slot holds a key of `key_bytes`
/// bytes, the rule of [`check_fit`].
#[inline]
pub(crate) fn fits(key_bytes: usize, slot_bytes: usize) -> bool {
    key_bytes != 0 && key_bytes < slot_bytes
}

/// Writes `key` into `slot`: its length byte, its bytes, zero padding.
///
/// # Errors
///
/// [`InsertError::KeyDoesNotFit`], leaving `slot` untouched, when
/// [`check_fit`] refuses `key` for a slot of `slot.len()` bytes.
pub fn write_slot(slot: &mut [u8], key: &FlowKey) -> Result<(), InsertError> {
    check_fit(key, slot.len())?;
    fill_slot(slot, key.as_bytes());
    Ok(())
}

/// Writes the key whose bytes are `key` into `slot`, which [`fits`] it.
#[inline]
pub(crate) fn fill_slot(slot: &mut [u8], key: &[u8]) {
    slot[0] = key.len() as u8;
    slot[1..=key.len()].copy_from_slice(key);
    slot[key.len() + 1..].fill(0);
}

/// Frees `slot`: every byte zero, as DRAM resets.
pub fn clear_slot(slot: &mut [u8]) {
    slot.fill(0);
}

/// `true` when `slot` holds no key.
pub fn is_free(slot: &[u8]) -> bool {
    slot.first().is_none_or(|&len| len == 0)
}

/// The key `slot` holds: `None` for a free slot, and for bytes no
/// [`write_slot`] of this width wrote (a length past the slot's end).
pub fn read_slot(slot: &[u8]) -> Option<FlowKey> {
    let len = usize::from(*slot.first()?);
    FlowKey::new(slot.get(1..=len)?).ok()
}

/// `true` when `slot` holds the key `key` (its bytes): its length byte
/// and key bytes match, compared in place.
pub(crate) fn holds(slot: &[u8], key: &[u8]) -> bool {
    slot.first()
        .is_some_and(|&len| slot.get(1..=usize::from(len)) == Some(key))
}

/// Searches the first `k` slots of a bucket's bytes for `key`; returns
/// the slot index (the Flow Match comparison and the table's bucket
/// search).
pub fn find_key(bytes: &[u8], slot_bytes: usize, k: usize, key: &FlowKey) -> Option<u8> {
    let kb = key.as_bytes();
    bytes
        .chunks_exact(slot_bytes)
        .take(k)
        .position(|slot| holds(slot, kb))
        .map(|i| i as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    /// `slots` written into `slot_bytes`-wide slots, back to back.
    fn bucket(slots: &[Option<FlowKey>], slot_bytes: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; slots.len() * slot_bytes];
        for (slot, key) in bytes.chunks_exact_mut(slot_bytes).zip(slots) {
            if let Some(key) = key {
                write_slot(slot, key).unwrap();
            }
        }
        bytes
    }

    fn read_back(bytes: &[u8], slot_bytes: usize) -> Vec<Option<FlowKey>> {
        bytes.chunks_exact(slot_bytes).map(read_slot).collect()
    }

    #[test]
    fn roundtrip_full_bucket() {
        let slots = vec![Some(key(1)), Some(key(2))];
        assert_eq!(read_back(&bucket(&slots, 16), 16), slots);
    }

    #[test]
    fn roundtrip_with_holes() {
        let slots = vec![None, Some(key(9)), None, Some(key(3))];
        let bytes = bucket(&slots, 16);
        assert_eq!(read_back(&bytes, 16), slots);
        let free: Vec<bool> = bytes.chunks_exact(16).map(is_free).collect();
        assert_eq!(free, [true, false, true, false]);
    }

    #[test]
    fn zero_bytes_is_empty_bucket() {
        assert_eq!(read_back(&[0u8; 32], 16), vec![None, None]);
        assert!([0u8; 16].chunks_exact(16).all(is_free));
    }

    #[test]
    fn a_written_slot_is_zero_padded() {
        let mut slot = [0xAA; 16];
        write_slot(&mut slot, &key(5)).unwrap();
        assert_eq!(slot[0], 13);
        assert_eq!(&slot[1..14], key(5).as_bytes());
        assert_eq!(slot[14..], [0, 0]);
        clear_slot(&mut slot);
        assert_eq!(slot, [0; 16]);
    }

    #[test]
    fn find_key_locates_slot() {
        let bytes = bucket(&[Some(key(5)), Some(key(6))], 16);
        assert_eq!(find_key(&bytes, 16, 2, &key(6)), Some(1));
        assert_eq!(find_key(&bytes, 16, 2, &key(5)), Some(0));
        assert_eq!(find_key(&bytes, 16, 2, &key(7)), None);
    }

    #[test]
    fn find_key_distinguishes_lengths() {
        let short = FlowKey::new(&[1, 2]).unwrap();
        let long = FlowKey::new(&[1, 2, 0]).unwrap();
        let bytes = bucket(&[Some(short)], 16);
        assert_eq!(find_key(&bytes, 16, 1, &long), None);
        assert_eq!(find_key(&bytes, 16, 1, &short), Some(0));
    }

    #[test]
    fn oversized_key_is_refused() {
        let wide = FlowKey::new(&[7u8; 16]).unwrap();
        let mut slot = [0xAA; 16];
        assert_eq!(
            write_slot(&mut slot, &wide),
            Err(InsertError::KeyDoesNotFit {
                key_bytes: 16,
                slot_bytes: 16
            })
        );
        assert_eq!(
            slot, [0xAA; 16],
            "a refused write leaves the slot as it was"
        );
        assert!(write_slot(&mut slot, &FlowKey::default()).is_err());
        assert!(check_fit(&FlowKey::new(&[7u8; 15]).unwrap(), 16).is_ok());
    }

    #[test]
    fn a_length_past_the_slot_reads_as_no_key() {
        let mut slot = [7u8; 16];
        slot[0] = 16;
        assert_eq!(read_slot(&slot), None);
    }
}
