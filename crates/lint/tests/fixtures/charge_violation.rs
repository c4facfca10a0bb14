//! Fixture: a protocol module charging digests and MACs itself (rule:
//! charge-sites). Naming `CostKind::Digest` in a comment is fine.

pub fn multicast(ctx: &mut Context, cfg: &Config, len: usize) {
    ctx.charge_kind(CostKind::Digest, cfg.cost.digest(len));
    ctx.charge_kind(CostKind::Mac, cfg.cost.authenticator(3, 16));
    ctx.charge_kind(CostKind::Net, cfg.cost.send(len));
}

pub fn partition_lookup(ctx: &mut Context, cost: &CostModel) {
    ctx.charge(cost.digest_fixed_ns);
}

pub fn identity(req: &Request) -> Digest {
    req.digest()
}

#[cfg(test)]
mod tests {
    fn price(cost: &super::CostModel) -> u64 {
        cost.mac(16)
    }
}
