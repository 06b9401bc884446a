//! Property tests for the exchange simulator: ledger conservation,
//! CAPTCHA determinism, campaign delivery.

use proptest::prelude::*;
use slum_exchange::captcha::Captcha;
use slum_exchange::economy::{AccountId, EconomyConfig, Ledger};

#[derive(Debug, Clone)]
enum Op {
    Earn(u8),
    Spend(u8, u8),
    Purchase(u8, u8),
    Suspend(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Earn),
        (0u8..6, 0u8..10).prop_map(|(a, v)| Op::Spend(a, v)),
        (0u8..6, 0u8..3).prop_map(|(a, d)| Op::Purchase(a, d)),
        (0u8..6).prop_map(Op::Suspend),
    ]
}

proptest! {
    /// The ledger conserves milli-credits under arbitrary operation
    /// sequences, and no account balance underflows on spend.
    #[test]
    fn ledger_conservation(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let accounts: Vec<AccountId> = (0..6).map(|_| ledger.open_account()).collect();
        for op in ops {
            match op {
                Op::Earn(a) => {
                    let _ = ledger.earn_view(accounts[a as usize % 6], &cfg);
                }
                Op::Spend(a, v) => {
                    let id = accounts[a as usize % 6];
                    let before = ledger.account(id).map(|acc| acc.balance_millis).unwrap_or(0);
                    let result = ledger.spend_visits(id, v as u64, &cfg);
                    if result.is_ok() {
                        let after = ledger.account(id).unwrap().balance_millis;
                        prop_assert!(after >= 0, "balance underflow: {after}");
                        prop_assert_eq!(before - after, cfg.cost_per_visit_millis * v as i64);
                    }
                }
                Op::Purchase(a, d) => {
                    let _ = ledger.purchase(accounts[a as usize % 6], d as u64, &cfg);
                }
                Op::Suspend(a) => ledger.suspend(accounts[a as usize % 6]),
            }
            prop_assert!(ledger.is_conserved(), "conservation violated");
        }
    }

    /// CAPTCHAs are deterministic, self-consistent, and reject wrong
    /// answers.
    #[test]
    fn captcha_properties(nonce in 0u64..100_000, wrong_delta in 1u32..1000) {
        let c = Captcha::for_nonce(nonce);
        prop_assert_eq!(&c, &Captcha::for_nonce(nonce));
        prop_assert!(c.verify(c.answer()));
        prop_assert!(!c.verify(c.answer().wrapping_add(wrong_delta)));
    }

    /// Burst delivery: delivered count is exactly the over-delivery
    /// model applied to the purchase, for any purchase size.
    #[test]
    fn delivery_scales_with_purchase(purchased in 10u64..5_000, seed in 0u64..100) {
        use slum_exchange::campaign::DeliveryModel;
        use slum_websim::rng::seeded;
        let model = DeliveryModel::default();
        let mut rng = seeded(seed);
        let events = model.deliver(purchased, 0, &mut rng);
        let expected = (purchased as f64 * model.overdelivery).round() as u64;
        prop_assert_eq!(events.len() as u64, expected);
        prop_assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
    }
}
