//! SQL `LIKE` patterns: `%` matches any run of characters, `_` any single
//! character; an escape character (if given) makes the character after it
//! literal.

/// One element of a parsed pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pat {
    /// `%`
    AnyRun,
    /// `_`
    AnyOne,
    /// A literal character.
    Lit(char),
}

/// A `LIKE` pattern parsed once, for repeated matching.
///
/// # Examples
///
/// ```
/// use rjms_selector::like::LikePattern;
/// let p = LikePattern::parse(r"50\%%", Some('\\'));
/// assert!(p.matches("50% off"));
/// assert!(!p.matches("500 off"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LikePattern(Box<[Pat]>);

impl LikePattern {
    /// Parses a pattern. Every pattern is valid: a trailing escape
    /// character stands for itself (JMS leaves this unspecified; SQL
    /// engines vary).
    pub fn parse(pattern: &str, escape: Option<char>) -> Self {
        let mut pat = Vec::with_capacity(pattern.len());
        let mut chars = pattern.chars();
        while let Some(c) = chars.next() {
            if Some(c) == escape {
                // An escaped character is literal — including the escape
                // character itself and both wildcards.
                pat.push(Pat::Lit(chars.next().unwrap_or(c)));
            } else if c == '%' {
                // Collapse runs of % — they are equivalent to one.
                if pat.last() != Some(&Pat::AnyRun) {
                    pat.push(Pat::AnyRun);
                }
            } else if c == '_' {
                pat.push(Pat::AnyOne);
            } else {
                pat.push(Pat::Lit(c));
            }
        }
        Self(pat.into_boxed_slice())
    }

    /// Whether `text` matches: the classic two-pointer algorithm, linear
    /// in practice, which backtracks to the last `%`. The text is walked
    /// as `&str` characters; nothing is allocated.
    pub fn matches(&self, text: &str) -> bool {
        let pat = &self.0;
        let mut rest = text.chars();
        let mut p = 0usize;
        // Pattern index of the last `%` and the text left when it was met.
        let mut star: Option<(usize, std::str::Chars<'_>)> = None;
        loop {
            let mut after = rest.clone();
            let Some(c) = after.next() else { break };
            match pat.get(p) {
                Some(Pat::AnyRun) => {
                    star = Some((p, rest.clone()));
                    p += 1;
                }
                Some(&at) if at == Pat::AnyOne || at == Pat::Lit(c) => {
                    rest = after;
                    p += 1;
                }
                _ => {
                    // Backtrack: let the last % absorb one more character.
                    let Some((star_p, star_rest)) = &mut star else { return false };
                    star_rest.next();
                    rest = star_rest.clone();
                    p = *star_p + 1;
                }
            }
        }
        pat[p..].iter().all(|at| *at == Pat::AnyRun)
    }
}

/// Parses `pattern` and matches `text` against it: the one-shot form of
/// [`LikePattern`], which the reference evaluator uses.
pub fn like_match(text: &str, pattern: &str, escape: Option<char>) -> bool {
    LikePattern::parse(pattern, escape).matches(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_basic_wildcards() {
        assert!(like_match("abc", "abc", None));
        assert!(like_match("abc", "a%", None));
        assert!(like_match("abc", "%c", None));
        assert!(like_match("abc", "a_c", None));
        assert!(!like_match("abc", "a_b", None));
        assert!(like_match("", "%", None));
        assert!(!like_match("", "_", None));
    }

    #[test]
    fn like_multiple_percent_runs() {
        assert!(like_match("abcdefg", "a%d%g", None));
        assert!(!like_match("abcdefg", "a%x%g", None));
        assert!(like_match("aaa", "%%%", None));
        assert!(like_match("mississippi", "%ss%ss%", None));
    }

    #[test]
    fn like_escape_makes_wildcards_literal() {
        assert!(like_match("50%", r"50\%", Some('\\')));
        assert!(!like_match("50x", r"50\%", Some('\\')));
        assert!(like_match("a_b", r"a\_b", Some('\\')));
        assert!(!like_match("axb", r"a\_b", Some('\\')));
        // Escaped escape char, and a trailing one standing for itself.
        assert!(like_match(r"a\b", r"a\\b", Some('\\')));
        assert!(like_match(r"a\", r"a\", Some('\\')));
    }

    #[test]
    fn like_unicode() {
        assert!(like_match("grüße", "gr_ße", None));
        assert!(like_match("grüße", "gr%e", None));
        assert!(like_match("grüße", "%ü%", None));
        assert!(!like_match("grüße", "gr_e", None));
    }

    #[test]
    fn a_parsed_pattern_is_reusable() {
        let p = LikePattern::parse("12%3", None);
        assert!(p.matches("12993"));
        assert!(!p.matches("12994"));
        assert!(p.matches("123"));
    }
}
