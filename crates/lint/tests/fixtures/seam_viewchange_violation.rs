//! Fixture: a replica reading the view change's timeouts (rule:
//! seam-flags). `viewchange.rs` owns `view_change_timeout_ns`.

pub struct Config {
    pub view_change_timeout_ns: u64,
    pub view_change_timeout_max_ns: u64,
}

pub fn doubled(cfg: &Config, timeout_ns: u64) -> u64 {
    (2 * timeout_ns).min(cfg.view_change_timeout_max_ns)
}

pub fn reset(cfg: &Config) -> u64 {
    cfg.view_change_timeout_ns
}

/// The replica asks the module instead.
pub fn changing(changing_to: Option<u64>) -> bool {
    changing_to.is_some()
}
