//! lexer regression fixture: raw identifiers must compare by name, so
//! `r#HashMap` cannot evade the determinism rule, while `r#type` used as
//! an ordinary field/binding lexes cleanly.

/// `r#HashMap` is the same type as `HashMap`; the rule must see it.
pub fn sneaky(m: &std::collections::r#HashMap<u8, u8>) -> usize {
    m.len()
}

/// Raw identifiers as bindings are ordinary code.
pub fn configure(r#type: usize) -> usize {
    let r#match = r#type + 1;
    r#match
}
