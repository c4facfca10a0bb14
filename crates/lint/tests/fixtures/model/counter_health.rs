//! Fixture: the health counter registry.

pub enum Counter {
    Sent,
    Retries,
}

impl Counter {
    pub const COUNT: usize = Counter::Retries as usize + 1;
}
