//! Fixture (clean): the engine, not protocol code, emits `Retries`.

fn drop_delivery(&mut self, dst: NodeId) {
    self.counters.count_add(dst, Counter::Retries, 1);
}
