//! The `Mapper` user-code trait.

use crate::types::{DataT, Emitter, KeyT, TaskContext};

/// User map function: consumes one input record, emits intermediate pairs.
///
/// Implementations must be pure with respect to the record (no cross-record
/// state): the runtime may re-run a map task after an injected failure and
/// expects identical output. Charge algorithm CPU cost to
/// [`TaskContext::add_work`]; record/byte counts are maintained by the
/// framework.
pub trait Mapper<I: DataT, K: KeyT, V: DataT>: Send + Sync {
    /// Processes `record`, emitting zero or more `(key, value)` pairs.
    fn map(&self, record: &I, ctx: &mut TaskContext, out: &mut Emitter<K, V>);
}

/// Blanket impl so plain closures can serve as mappers.
impl<I: DataT, K: KeyT, V: DataT, F> Mapper<I, K, V> for F
where
    F: Fn(&I, &mut TaskContext, &mut Emitter<K, V>) + Send + Sync,
{
    fn map(&self, record: &I, ctx: &mut TaskContext, out: &mut Emitter<K, V>) {
        self(record, ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_a_mapper() {
        let mapper = |r: &u32, ctx: &mut TaskContext, out: &mut Emitter<u32, u32>| {
            ctx.add_work(1);
            out.emit(r % 2, *r);
        };
        let mut ctx = TaskContext::new(0, 0);
        let mut em = Emitter::new(None);
        Mapper::map(&mapper, &7, &mut ctx, &mut em);
        let (pairs, _) = em.into_parts();
        assert_eq!(pairs, vec![(1, 7)]);
        assert_eq!(ctx.work_units(), 1);
    }
}
