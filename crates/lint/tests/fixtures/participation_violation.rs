//! Fixture: inline `n - f` participation arithmetic (rule: quorum-math).
//! A threshold derived by hand belongs in `Quorums`, where one audited
//! method names it. Prose like `n - f` in comments must NOT be
//! flagged.

pub struct Cfg {
    pub n: u32,
    pub f: u32,
}

impl Cfg {
    pub fn n(&self) -> u32 {
        self.n
    }
    pub fn f(&self) -> u32 {
        self.f
    }
}

pub fn threshold_inline(cfg: &Cfg) -> usize {
    cfg.n as usize - cfg.f as usize
}

pub fn threshold_inline_calls(cfg: &Cfg) -> u32 {
    cfg.n() - cfg.f()
}

pub fn threshold_inline_locals(n: u32, f: u32) -> u32 {
    n - f
}

pub fn not_a_threshold(len: u32, f: u32) -> u32 {
    // The left operand is not the identifier `n`; must NOT be flagged.
    len - f
}

pub fn nor_this(n: u32, skipped: u32) -> u32 {
    // The right operand does not end in `f`; must NOT be flagged.
    n - skipped
}
