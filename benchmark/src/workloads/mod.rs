//! The four workloads.  Each says in its module docs why it exists.

pub mod mine_rules;
pub mod pqmatch_cold;
pub mod serve_live;
pub mod view_stream;

pub use mine_rules::MineRules;
pub use pqmatch_cold::PqmatchCold;
pub use serve_live::ServeLive;
pub use view_stream::ViewStream;
