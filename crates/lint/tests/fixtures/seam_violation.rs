//! Fixture: a replica reading carved features' flags (rule: seam-flags).
//! Naming `read_leases` in a comment is fine.

pub struct Config {
    pub read_leases: bool,
    pub admission_control: bool,
}

pub fn armed(cfg: &Config) -> bool {
    cfg.read_leases
        || cfg.admission_control
}

/// The module reads its flag; the replica only asks whether it is armed.
pub fn gate_armed(gate: Option<&u32>) -> bool {
    gate.is_some()
}

#[cfg(test)]
mod tests {
    fn arm(cfg: &mut super::Config) {
        cfg.admission_control = true;
    }
}
