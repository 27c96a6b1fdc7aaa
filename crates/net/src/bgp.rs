//! BGP vocabulary shared between the configuration model and the route
//! simulation engine: AS numbers, communities, and AS paths.

use std::fmt;
use std::str::FromStr;

/// A 4-byte autonomous-system number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl FromStr for Asn {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Asn, Self::Err> {
        Ok(Asn(s.parse()?))
    }
}

/// A standard BGP community, displayed in the canonical `asn:value` form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Community(pub u32);

impl Community {
    /// Builds a community from its two 16-bit halves.
    pub fn new(high: u16, low: u16) -> Community {
        Community(((high as u32) << 16) | low as u32)
    }

    /// The high 16 bits (conventionally an AS number).
    pub fn high(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits (conventionally a tag).
    pub fn low(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.high(), self.low())
    }
}

/// Error when parsing a community literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityParseError(pub String);

impl fmt::Display for CommunityParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid community: {}", self.0)
    }
}

impl std::error::Error for CommunityParseError {}

impl FromStr for Community {
    type Err = CommunityParseError;

    fn from_str(s: &str) -> Result<Community, CommunityParseError> {
        let (h, l) = s.split_once(':').ok_or_else(|| CommunityParseError(s.to_string()))?;
        let h: u16 = h.parse().map_err(|_| CommunityParseError(s.to_string()))?;
        let l: u16 = l.parse().map_err(|_| CommunityParseError(s.to_string()))?;
        Ok(Community::new(h, l))
    }
}

/// A BGP AS path: the sequence of AS numbers a route has traversed, most
/// recent first (as on the wire).
///
/// We model only `AS_SEQUENCE` segments: none of the paper's lessons depend
/// on `AS_SET` semantics, and modern BGP deprecates them. AS paths are
/// heavily shared between routes, so the routing engine interns them (the
/// §4.1.3 memory optimization); interning requires `Eq + Hash`, which the
/// plain `Vec<Asn>` representation provides.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AsPath(pub Vec<Asn>);

impl AsPath {
    /// The empty path (routes originated locally / iBGP-internal).
    pub fn empty() -> AsPath {
        AsPath(Vec::new())
    }

    /// Path length used by the BGP decision process. Each ASN counts once.
    pub fn length(&self) -> usize {
        self.0.len()
    }

    /// Returns a new path with `asn` prepended `n` times (route-map
    /// `set as-path prepend`, and the normal eBGP export prepend).
    pub fn prepend(&self, asn: Asn, n: usize) -> AsPath {
        let mut v = Vec::with_capacity(self.0.len() + n);
        v.extend(std::iter::repeat(asn).take(n));
        v.extend_from_slice(&self.0);
        AsPath(v)
    }

    /// Loop detection: does the path already contain `asn`?
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.contains(&asn)
    }

    /// Matches the path against a tiny regex dialect used by route maps:
    /// `^` start anchor, `$` end anchor, `_` separator, digit runs for
    /// ASNs, `.*` wildcard. This is the small practical subset the paper's
    /// Lesson 1 calls out as painful in Datalog ("route maps can use
    /// regular expressions") and trivial in imperative code.
    pub fn matches_regex(&self, pattern: &str) -> bool {
        // Render the path the way routers do: "65001 65002 65003".
        let rendered: String = self
            .0
            .iter()
            .map(|a| a.0.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        simple_regex_match(pattern, &rendered)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "(empty)");
        }
        let s: Vec<String> = self.0.iter().map(|a| a.0.to_string()).collect();
        write!(f, "{}", s.join(" "))
    }
}

/// A minimal regex matcher supporting `^ $ . * _` and literals — enough for
/// the AS-path patterns that appear in practice (`^$`, `_65000_`, `^65001`,
/// `.*` etc.). `_` matches a boundary: start, end, or a space. There are
/// no character classes: in `[0-9]`, each character matches only itself.
///
/// Implemented by backtracking over the pattern; patterns are tiny so the
/// worst case is irrelevant.
pub fn simple_regex_match(pattern: &str, text: &str) -> bool {
    let pat: Vec<char> = pattern.chars().collect();
    let txt: Vec<char> = text.chars().collect();
    // `^` anchors at start; otherwise try each starting offset.
    if pat.first() == Some(&'^') {
        match_here(&pat[1..], &txt, 0)
    } else {
        (0..=txt.len()).any(|i| match_here(&pat, &txt, i))
    }
}

fn match_here(pat: &[char], txt: &[char], i: usize) -> bool {
    if pat.is_empty() {
        return true;
    }
    if pat[0] == '$' {
        return pat.len() == 1 && i == txt.len();
    }
    // `X*`: zero or more of X.
    if pat.len() >= 2 && pat[1] == '*' {
        let rest = &pat[2..];
        let mut j = i;
        loop {
            if match_here(rest, txt, j) {
                return true;
            }
            if j < txt.len() && char_matches(pat[0], txt, j) {
                j += 1;
            } else {
                return false;
            }
        }
    }
    if pat[0] == '_' {
        // Boundary: start of text, end of text, or a literal space.
        if i == 0 || i == txt.len() {
            return match_here(&pat[1..], txt, i);
        }
        if txt[i] == ' ' {
            return match_here(&pat[1..], txt, i + 1);
        }
        return false;
    }
    if i < txt.len() && char_matches(pat[0], txt, i) {
        return match_here(&pat[1..], txt, i + 1);
    }
    false
}

fn char_matches(p: char, txt: &[char], i: usize) -> bool {
    p == '.' || txt[i] == p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_halves_roundtrip() {
        let c = Community::new(65001, 300);
        assert_eq!(c.high(), 65001);
        assert_eq!(c.low(), 300);
        assert_eq!(c.to_string(), "65001:300");
        assert_eq!("65001:300".parse::<Community>().unwrap(), c);
        assert!("65001".parse::<Community>().is_err());
        assert!("70000:1".parse::<Community>().is_err());
    }

    #[test]
    fn as_path_prepend() {
        let p = AsPath::empty().prepend(Asn(65001), 1).prepend(Asn(65002), 2);
        assert_eq!(p.0, vec![Asn(65002), Asn(65002), Asn(65001)]);
        assert_eq!(p.length(), 3);
        assert!(p.contains(Asn(65001)));
        assert!(!p.contains(Asn(65999)));
    }

    #[test]
    fn as_path_display() {
        assert_eq!(AsPath::empty().to_string(), "(empty)");
        assert_eq!(AsPath(vec![Asn(1), Asn(2)]).to_string(), "1 2");
    }

    #[test]
    fn regex_empty_path_anchor() {
        assert!(AsPath::empty().matches_regex("^$"));
        assert!(!AsPath(vec![Asn(65001)]).matches_regex("^$"));
    }

    #[test]
    fn regex_underscore_boundaries() {
        let p = AsPath(vec![Asn(65001), Asn(65002), Asn(65003)]);
        assert!(p.matches_regex("_65002_"));
        assert!(p.matches_regex("^65001_"));
        assert!(p.matches_regex("_65003$"));
        assert!(!p.matches_regex("_65004_"));
        // `_6500_` must not match inside the ASN 65001.
        assert!(!p.matches_regex("_6500_"));
    }

    #[test]
    fn regex_wildcards() {
        let p = AsPath(vec![Asn(65001), Asn(174)]);
        assert!(p.matches_regex(".*"));
        assert!(p.matches_regex("^65001 .*"));
        assert!(p.matches_regex("^6500. 174$"));
        assert!(!p.matches_regex("^174"));
    }

    #[test]
    fn regex_star_backtracking() {
        assert!(simple_regex_match("a*b", "aaab"));
        assert!(simple_regex_match("a*b", "b"));
        assert!(!simple_regex_match("^a*b$", "aaac"));
        assert!(simple_regex_match(".*c$", "abc"));
    }
}
