//! Fixture (clean): a `Msg` table in the declaration style of the real
//! `messages.rs`, plus a `#[cfg(test)]`-only variant that is exempt.

pub struct Ping;
pub struct Pong;
pub struct Probe;
wire_enum! {
    pub enum Msg {
        Ping(Ping) = 0,
        Pong(Pong) = 1,
        #[cfg(test)]
        Probe(Probe) = 2,
    }
}
