//! Fixture library crate for D2's literal-index residue: an index after an
//! identifier, a call or another index fires; array literals, variable
//! indexes, strings and test code stay silent.

pub fn index(v: &[u8]) -> u8 {
    v[0] //~ ERROR D2
}

pub fn call_then_index(f: fn() -> Vec<u8>) -> u8 {
    f()[1] //~ ERROR D2
}

pub fn legal(v: &[u8], i: usize) -> u8 {
    let a = [1u8, 2, 3];
    a[i] + v[i]
}

pub fn strings_do_not_fire() -> &'static str {
    "v[0]"
}

#[cfg(test)]
fn helper(v: [u8; 4]) -> u8 {
    v[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v = vec![1u8];
        let _ = v[0];
    }
}
