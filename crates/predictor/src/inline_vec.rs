//! A tiny fixed-capacity inline vector for per-prediction metadata.

/// A fixed-capacity, stack-only vector.
///
/// Predictor metadata (per-table indices and tags) is latched for every
/// in-flight branch, so these lists must not touch the heap. Capacity `N`
/// is sized by the largest supported configuration; overflow panics, which
/// only a misconfigured table count can trigger.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InlineVec<T: Copy + Default, const N: usize> {
    buf: [T; N],
    len: u8,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    #[must_use]
    pub(crate) fn new() -> Self {
        InlineVec {
            buf: [T::default(); N],
            len: 0,
        }
    }

    /// Appends `v`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` elements.
    pub(crate) fn push(&mut self, v: T) {
        assert!((self.len as usize) < N, "InlineVec capacity {N} exceeded");
        self.buf[self.len as usize] = v;
        self.len += 1;
    }

    /// The elements as a slice.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_slice() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(7);
        v.push(9);
        assert_eq!(v.as_slice(), &[7, 9]);
        assert_eq!(v[1], 9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overflow_panics() {
        let mut v: InlineVec<u16, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
    }

    #[test]
    fn equality_ignores_tail_garbage() {
        let mut a: InlineVec<u32, 4> = InlineVec::new();
        let mut b: InlineVec<u32, 4> = InlineVec::new();
        a.push(1);
        b.push(1);
        assert_eq!(a, b);
        b.push(2);
        assert_ne!(a, b);
    }
}
