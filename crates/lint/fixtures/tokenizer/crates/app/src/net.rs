//! Tokenizer torture fixture: every line here LOOKS like a violation to a
//! naive regex but is actually inert (inside strings, comments, raw strings,
//! char literals). The file is named `net.rs` so the hostile-length-taint
//! pass reads it; a correct lexer reports zero findings.

// A line comment mentioning unsafe { x.unwrap() } and buf[0] and panic!().

/* A block comment with unsafe and .expect("boom")
   /* nested block comment: still a comment despite unsafe { } */
   tail of the outer comment: x.unwrap() */

pub fn strings() -> usize {
    let a = "unsafe { danger.unwrap() } // not code";
    let b = "escaped quote \" then .expect(\"x\") still in string";
    let c = r#"raw string with "quotes" and x.unwrap() and buf[i]"#;
    let d = r##"raw with hashes: "# not the end, panic!("boom") "##;
    let e = b"byte string with unsafe and arr[0]";
    let f = br#"raw byte string: seqcst.store(1, Ordering::SeqCst)"#;
    a.len() + b.len() + c.len() + d.len() + e.len() + f.len()
}

pub fn chars_and_lifetimes<'a>(s: &'a str) -> (char, char, &'a str) {
    let quote = '\'';
    let bracket = '[';
    let _byte = b'!';
    (quote, bracket, s)
}

pub fn slices_that_are_not_indexing(xs: &[u32], ys: &mut [u32; 4]) -> Vec<u32> {
    let arr = [1u32, 2, 3];
    let from_macro = vec![4u32, 5];
    let [first, .., last] = arr;
    ys.copy_from_slice(&[first, last, 0, 0]);
    let mut out: Vec<u32> = xs.to_vec();
    out.extend(from_macro);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwraps_are_fine_in_tests() {
        let v = slices_that_are_not_indexing(&[1, 2], &mut [0; 4]);
        assert_eq!(v.first().copied().unwrap(), 1);
        let direct = v[0];
        assert_eq!(direct, 1);
    }
}
