//! Inline-first storage for small vectors and matrices.
//!
//! The Kalman hot path works exclusively with tiny shapes (DESIGN.md caps
//! state dimension at n ≤ 8), so `Vector`/`Matrix` back their elements with
//! a fixed inline buffer and fall back to the heap only above the cap.
//! Construction, clone, and temporaries for in-cap shapes never touch the
//! allocator; shapes above the cap behave exactly as the old `Vec<f64>`
//! representation did.
//!
//! Semantics are value-based: equality, ordering of elements, and iteration
//! are defined over the first `len` elements regardless of which variant
//! holds them. Whether a value is inline or heap is an invisible storage
//! detail (a heap value resized below the cap stays heap — its capacity is
//! already paid for).

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of inline→heap storage fallbacks (see
/// [`crate::heap_fallbacks`]). Incremented whenever a `SmallBuf` takes the
/// heap branch during construction or an inline value is forced to grow past
/// its cap; heap-stays-heap resizes don't count (the capacity is already
/// paid for and no new fallback happened).
static HEAP_FALLBACKS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_heap_fallback() {
    HEAP_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Current value of the heap-fallback counter.
pub(crate) fn heap_fallbacks() -> u64 {
    HEAP_FALLBACKS.load(Ordering::Relaxed)
}

/// Element storage: inline up to `CAP` elements, heap above.
#[derive(Clone)]
pub(crate) enum SmallBuf<const CAP: usize> {
    /// Elements live in `buf[..len]`; `buf[len..]` is zero padding.
    Inline {
        /// Number of live elements.
        len: usize,
        /// Fixed backing array.
        buf: [f64; CAP],
    },
    /// Above-cap fallback with identical semantics.
    Heap(Vec<f64>),
}

impl<const CAP: usize> SmallBuf<CAP> {
    /// A buffer of `len` zeros (inline when `len <= CAP`).
    #[inline]
    pub fn zeroed(len: usize) -> Self {
        if len <= CAP {
            SmallBuf::Inline {
                len,
                buf: [0.0; CAP],
            }
        } else {
            note_heap_fallback();
            SmallBuf::Heap(vec![0.0; len])
        }
    }

    /// A buffer of `len` copies of `value`.
    #[inline]
    pub fn filled(len: usize, value: f64) -> Self {
        if len <= CAP {
            let mut buf = [0.0; CAP];
            buf[..len].fill(value);
            SmallBuf::Inline { len, buf }
        } else {
            note_heap_fallback();
            SmallBuf::Heap(vec![value; len])
        }
    }

    /// Copies `s` into a fresh buffer.
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        if s.len() <= CAP {
            let mut buf = [0.0; CAP];
            buf[..s.len()].copy_from_slice(s);
            SmallBuf::Inline { len: s.len(), buf }
        } else {
            note_heap_fallback();
            SmallBuf::Heap(s.to_vec())
        }
    }

    /// Takes ownership of `v`; small contents move inline (the `Vec` is
    /// dropped), large contents keep the heap allocation.
    #[inline]
    pub fn from_vec(v: Vec<f64>) -> Self {
        if v.len() <= CAP {
            Self::from_slice(&v)
        } else {
            note_heap_fallback();
            SmallBuf::Heap(v)
        }
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SmallBuf::Inline { len, .. } => *len,
            SmallBuf::Heap(v) => v.len(),
        }
    }

    /// The live elements.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match self {
            SmallBuf::Inline { len, buf } => &buf[..*len],
            SmallBuf::Heap(v) => v,
        }
    }

    /// The live elements, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            SmallBuf::Inline { len, buf } => &mut buf[..*len],
            SmallBuf::Heap(v) => v,
        }
    }

    /// Extracts a `Vec` (allocates for inline values).
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        match self {
            SmallBuf::Inline { len, buf } => buf[..len].to_vec(),
            SmallBuf::Heap(v) => v,
        }
    }

    /// Resizes to `len` zeros, reusing existing storage. Never allocates
    /// when the target fits inline or within existing heap capacity.
    #[inline]
    pub fn resize_zeroed(&mut self, len: usize) {
        match self {
            SmallBuf::Inline { len: cur, buf } => {
                if len <= CAP {
                    buf[..len].fill(0.0);
                    *cur = len;
                } else {
                    note_heap_fallback();
                    *self = SmallBuf::Heap(vec![0.0; len]);
                }
            }
            SmallBuf::Heap(v) => {
                // Stay heap even below the cap: capacity is already paid.
                v.clear();
                v.resize(len, 0.0);
            }
        }
    }

    /// Replaces the contents with a copy of `s`, reusing storage.
    #[inline]
    pub fn copy_from_slice(&mut self, s: &[f64]) {
        match self {
            SmallBuf::Inline { len: cur, buf } => {
                if s.len() <= CAP {
                    buf[..s.len()].copy_from_slice(s);
                    *cur = s.len();
                } else {
                    note_heap_fallback();
                    *self = SmallBuf::Heap(s.to_vec());
                }
            }
            SmallBuf::Heap(v) => {
                v.clear();
                v.extend_from_slice(s);
            }
        }
    }
}

impl<const CAP: usize> PartialEq for SmallBuf<CAP> {
    /// Value equality: compares live elements only, not the storage variant.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const CAP: usize> std::fmt::Debug for SmallBuf<CAP> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Buf = SmallBuf<4>;

    #[test]
    fn inline_below_cap_heap_above() {
        assert!(matches!(Buf::zeroed(4), SmallBuf::Inline { .. }));
        assert!(matches!(Buf::zeroed(5), SmallBuf::Heap(_)));
        assert!(matches!(
            Buf::from_slice(&[1.0; 3]),
            SmallBuf::Inline { .. }
        ));
        assert!(matches!(Buf::from_vec(vec![1.0; 9]), SmallBuf::Heap(_)));
        assert!(matches!(
            Buf::from_vec(vec![1.0; 2]),
            SmallBuf::Inline { .. }
        ));
    }

    #[test]
    fn equality_ignores_variant() {
        let a = Buf::from_slice(&[1.0, 2.0]);
        let b = SmallBuf::<4>::Heap(vec![1.0, 2.0]);
        assert_eq!(a, b);
        assert_ne!(a, Buf::from_slice(&[1.0, 3.0]));
        assert_ne!(a, Buf::from_slice(&[1.0]));
    }

    #[test]
    fn resize_reuses_and_zeroes() {
        let mut b = Buf::from_slice(&[1.0, 2.0, 3.0]);
        b.resize_zeroed(2);
        assert_eq!(b.as_slice(), &[0.0, 0.0]);
        b.resize_zeroed(6);
        assert!(matches!(b, SmallBuf::Heap(_)));
        assert_eq!(b.as_slice(), &[0.0; 6]);
        b.resize_zeroed(3); // stays heap, no shrink-allocation churn
        assert!(matches!(b, SmallBuf::Heap(_)));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn copy_from_slice_replaces() {
        let mut b = Buf::zeroed(1);
        b.copy_from_slice(&[5.0, 6.0]);
        assert_eq!(b.as_slice(), &[5.0, 6.0]);
        b.copy_from_slice(&[1.0; 6]);
        assert_eq!(b.len(), 6);
        b.copy_from_slice(&[2.0]);
        assert_eq!(b.as_slice(), &[2.0]);
    }

    #[test]
    fn into_vec_roundtrip() {
        assert_eq!(Buf::from_slice(&[1.0, 2.0]).into_vec(), vec![1.0, 2.0]);
        assert_eq!(Buf::from_vec(vec![0.5; 7]).into_vec(), vec![0.5; 7]);
    }

    #[test]
    fn heap_fallbacks_counted() {
        // Other tests run concurrently and also bump the global counter, so
        // assert only on deltas being at least the fallbacks we caused.
        let before = heap_fallbacks();
        let _a = Buf::zeroed(5); // +1
        let _b = Buf::filled(6, 1.0); // +1
        let _c = Buf::from_slice(&[0.0; 7]); // +1
        let _d = Buf::from_vec(vec![0.0; 8]); // +1
        let mut e = Buf::zeroed(2);
        e.resize_zeroed(9); // +1 (inline → heap)
        e.resize_zeroed(12); // heap stays heap: no count
        let mut f = Buf::zeroed(2);
        f.copy_from_slice(&[1.0; 10]); // +1 (inline → heap)
        let _inline = Buf::zeroed(3); // inline: no count
        assert!(heap_fallbacks() >= before + 6);
    }

    #[test]
    fn empty_is_fine() {
        let b = Buf::zeroed(0);
        assert_eq!(b.len(), 0);
        assert_eq!(b.as_slice(), &[] as &[f64]);
    }
}
