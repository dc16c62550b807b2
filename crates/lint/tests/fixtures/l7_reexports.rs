// L7 fixture: a facade that re-exports `a::nobody_names_me`, on one line
// and in a multi-line block, and names it nowhere else.

pub use a::nobody_names_me;

pub mod prelude {
    pub use a::{
        nobody_names_me,
        NobodyNamesThisType,
    };
}

// A plain import after the block names what it imports.
use a::NobodyNamesThisType as _;
