//! Fixture (violation): protocol code emits `Sent` and only reads
//! `Retries`.

pub fn send(ctx: &mut Context) {
    ctx.count(Counter::Sent);
}

pub fn retries(health: &Counters) -> u64 {
    health.total(Counter::Retries)
}
