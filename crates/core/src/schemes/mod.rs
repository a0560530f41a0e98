//! The reclamation schemes.
//!
//! | module | scheme(s) | paper role |
//! |---|---|---|
//! | [`leak`] | `none` | the leaky "upper bound" baseline the paper's AF schemes beat |
//! | [`epoch`] | `debra`, `rcu`, `qsbr` | DEBRA (Brown), the state-of-the-art EBR whose batch frees expose the RBF problem (§3); classic per-operation EBR (Fraser / Hart's RCU); quiescent-state-based reclamation (Hart et al.) |
//! | [`token`] | `token_naive`, `token_passfirst`, `token`, (`token_af` via AF mode) | §4's Token-EBR progression |
//! | [`era`] | `he`, `wfe`, `ibr` | hazard eras (Ramalhete & Correia); wait-free eras (Nikolaev & Ravindran), simplified, as `he`'s double-word shape; 2GE interval-based reclamation (Wen et al.) |
//! | [`hazard`] | `hp`, `nbr`, `nbr+` | hazard pointers (Michael); neutralization-based reclamation (Singh et al.), cooperative-signal variant |

pub mod epoch;
pub mod era;
pub mod hazard;
pub mod leak;
pub mod token;

// The address-reservation scheme's tests, grouped by kind: `hp::tests`
// runs `hp`, `nbr::tests` runs `nbr` and `nbr+`.
#[cfg(test)]
mod hp {
    mod tests;
}
#[cfg(test)]
mod nbr {
    mod tests;
}
