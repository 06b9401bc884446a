//! Credit economy: accounts, earning, spending, purchases.
//!
//! Exchanges operate on reciprocity — "members earn credit for viewing
//! other members' websites" — topped up with cash purchases ("the
//! cost-per-thousand hits on traffic exchanges range from a few cents to
//! a few dollars", §II-A). Credits are tracked in fixed-point
//! milli-credits so ledger conservation is exact.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Account identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AccountId(pub u64);

/// Account status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccountStatus {
    /// Active member.
    Active,
    /// Suspended (anti-abuse violation).
    Suspended,
}

/// A member account.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Account {
    /// Identifier.
    pub id: AccountId,
    /// Milli-credit balance.
    pub balance_millis: i64,
    /// Status.
    pub status: AccountStatus,
}

/// Errors from economy operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EconomyError {
    /// The account does not exist.
    UnknownAccount(AccountId),
    /// The account is suspended.
    Suspended(AccountId),
    /// Balance too low for the requested spend.
    InsufficientCredits {
        /// Who tried to spend.
        account: AccountId,
        /// Milli-credits requested.
        requested: i64,
        /// Milli-credits available.
        available: i64,
    },
}

impl std::fmt::Display for EconomyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EconomyError::UnknownAccount(id) => write!(f, "unknown account {id:?}"),
            EconomyError::Suspended(id) => write!(f, "account {id:?} is suspended"),
            EconomyError::InsufficientCredits { account, requested, available } => write!(
                f,
                "account {account:?} has {available} milli-credits, needs {requested}"
            ),
        }
    }
}

impl std::error::Error for EconomyError {}

/// Pricing and earn-rate configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EconomyConfig {
    /// Milli-credits earned per page surfed (auto-surf exchanges pay
    /// less per view than manual).
    pub earn_per_view_millis: i64,
    /// Milli-credits charged per visit delivered to a member site.
    pub cost_per_visit_millis: i64,
    /// Visits granted per US dollar when buying traffic. The paper's
    /// burst experiment paid $5 for 2,500 visits → 500 visits/$.
    pub visits_per_dollar: u64,
}

impl Default for EconomyConfig {
    fn default() -> Self {
        EconomyConfig {
            earn_per_view_millis: 500,
            cost_per_visit_millis: 1_000,
            visits_per_dollar: 500,
        }
    }
}

/// The exchange's credit ledger.
///
/// Invariant: the sum of balances changes only through explicit mint
/// (purchases) and burn (house cut) operations — surf-earn and
/// visit-spend are transfers from/to the house account.
///
/// ```
/// use slum_exchange::economy::{EconomyConfig, Ledger};
///
/// # fn main() -> Result<(), slum_exchange::economy::EconomyError> {
/// let mut ledger = Ledger::new();
/// let cfg = EconomyConfig::default();
/// let member = ledger.open_account();
/// // Surf ten pages, spend the credit on five visits.
/// for _ in 0..10 {
///     ledger.earn_view(member, &cfg)?;
/// }
/// ledger.spend_visits(member, 5, &cfg)?;
/// assert!(ledger.is_conserved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Ledger {
    accounts: HashMap<AccountId, Account>,
    /// The exchange's own pool; earns what members spend, funds what
    /// members earn.
    house_millis: i64,
    /// Total milli-credits ever minted via purchases.
    minted_millis: i64,
    next_id: u64,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Opens a new account with zero balance.
    pub fn open_account(&mut self) -> AccountId {
        let id = AccountId(self.next_id);
        self.next_id += 1;
        self.accounts
            .insert(id, Account { id, balance_millis: 0, status: AccountStatus::Active });
        id
    }

    /// Borrows an account.
    pub fn account(&self, id: AccountId) -> Option<&Account> {
        self.accounts.get(&id)
    }

    /// Suspends an account (anti-abuse).
    pub fn suspend(&mut self, id: AccountId) {
        if let Some(a) = self.accounts.get_mut(&id) {
            a.status = AccountStatus::Suspended;
        }
    }

    fn active_mut(&mut self, id: AccountId) -> Result<&mut Account, EconomyError> {
        let account =
            self.accounts.get_mut(&id).ok_or(EconomyError::UnknownAccount(id))?;
        if account.status == AccountStatus::Suspended {
            return Err(EconomyError::Suspended(id));
        }
        Ok(account)
    }

    /// Credits an account for one surfed page view (transfer from the
    /// house pool).
    ///
    /// # Errors
    ///
    /// Fails for unknown or suspended accounts.
    pub fn earn_view(&mut self, id: AccountId, cfg: &EconomyConfig) -> Result<(), EconomyError> {
        let amount = cfg.earn_per_view_millis;
        let account = self.active_mut(id)?;
        account.balance_millis += amount;
        self.house_millis -= amount;
        Ok(())
    }

    /// Spends credits for `visits` visits to the member's site
    /// (transfer to the house pool).
    ///
    /// # Errors
    ///
    /// Fails when the balance cannot cover the spend.
    pub fn spend_visits(
        &mut self,
        id: AccountId,
        visits: u64,
        cfg: &EconomyConfig,
    ) -> Result<(), EconomyError> {
        let amount = cfg.cost_per_visit_millis * visits as i64;
        let account = self.active_mut(id)?;
        if account.balance_millis < amount {
            return Err(EconomyError::InsufficientCredits {
                account: id,
                requested: amount,
                available: account.balance_millis,
            });
        }
        account.balance_millis -= amount;
        self.house_millis += amount;
        Ok(())
    }

    /// Buys visit credits for cash: mints `visits_per_dollar × dollars`
    /// visits' worth of credits into the account.
    ///
    /// # Errors
    ///
    /// Fails for unknown or suspended accounts.
    pub fn purchase(
        &mut self,
        id: AccountId,
        dollars: u64,
        cfg: &EconomyConfig,
    ) -> Result<u64, EconomyError> {
        let visits = cfg.visits_per_dollar * dollars;
        let amount = cfg.cost_per_visit_millis * visits as i64;
        let account = self.active_mut(id)?;
        account.balance_millis += amount;
        self.minted_millis += amount;
        Ok(visits)
    }

    /// Ledger conservation check: member balances + house pool == minted.
    pub fn is_conserved(&self) -> bool {
        let members: i64 = self.accounts.values().map(|a| a.balance_millis).sum();
        members + self.house_millis == self.minted_millis
    }

    /// The house pool (negative when the exchange has paid out more surf
    /// rewards than it has collected).
    pub fn house_millis(&self) -> i64 {
        self.house_millis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earn_and_spend_conserve() {
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let a = ledger.open_account();
        let b = ledger.open_account();
        for _ in 0..10 {
            ledger.earn_view(a, &cfg).unwrap();
        }
        assert!(ledger.is_conserved());
        assert_eq!(ledger.account(a).unwrap().balance_millis, 5_000);
        ledger.spend_visits(a, 5, &cfg).unwrap();
        assert_eq!(ledger.account(a).unwrap().balance_millis, 0);
        assert!(ledger.is_conserved());
        let _ = b;
    }

    #[test]
    fn overspend_rejected_with_details() {
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let a = ledger.open_account();
        ledger.earn_view(a, &cfg).unwrap();
        let err = ledger.spend_visits(a, 10, &cfg).unwrap_err();
        match err {
            EconomyError::InsufficientCredits { requested, available, .. } => {
                assert_eq!(requested, 10_000);
                assert_eq!(available, 500);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(ledger.is_conserved());
    }

    #[test]
    fn purchase_matches_paper_pricing() {
        // $5 buys 2,500 visits (the paper's burst-validation purchase).
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let a = ledger.open_account();
        let visits = ledger.purchase(a, 5, &cfg).unwrap();
        assert_eq!(visits, 2_500);
        ledger.spend_visits(a, 2_500, &cfg).unwrap();
        assert_eq!(ledger.account(a).unwrap().balance_millis, 0);
        assert!(ledger.is_conserved());
    }

    #[test]
    fn suspended_account_blocked_everywhere() {
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let a = ledger.open_account();
        ledger.purchase(a, 1, &cfg).unwrap();
        ledger.suspend(a);
        assert_eq!(ledger.earn_view(a, &cfg), Err(EconomyError::Suspended(a)));
        assert_eq!(ledger.spend_visits(a, 1, &cfg), Err(EconomyError::Suspended(a)));
        assert!(matches!(ledger.purchase(a, 1, &cfg), Err(EconomyError::Suspended(_))));
    }

    #[test]
    fn unknown_account_errors() {
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let ghost = AccountId(999);
        assert_eq!(ledger.earn_view(ghost, &cfg), Err(EconomyError::UnknownAccount(ghost)));
    }

    #[test]
    fn conservation_under_random_workload() {
        let mut ledger = Ledger::new();
        let cfg = EconomyConfig::default();
        let ids: Vec<AccountId> = (0..8).map(|_| ledger.open_account()).collect();
        for (i, &id) in ids.iter().enumerate().cycle().take(1_000) {
            match i % 3 {
                0 => {
                    let _ = ledger.earn_view(id, &cfg);
                }
                1 => {
                    let _ = ledger.spend_visits(id, (i % 4) as u64, &cfg);
                }
                _ => {
                    let _ = ledger.purchase(id, (i % 2) as u64, &cfg);
                }
            }
            assert!(ledger.is_conserved(), "conservation broke at step {i}");
        }
    }
}
