// L7 fixture: one `pub fn` that, scanned alone, nothing else names.

/// Fires unless a file outside this crate's library sources names it.
pub fn nobody_names_me() -> u32 {
    1
}

/// Types are out of L7's scope, named or not.
pub struct NobodyNamesThisType;

// Already narrowed: rustc's dead-code lint covers it.
pub(crate) fn narrowed() {}

#[cfg(test)]
mod tests {
    // Test code declares nothing L7 checks.
    pub fn test_helper_nobody_names() {}
}
