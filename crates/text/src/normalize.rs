//! String normalisation used throughout the matching pipeline.
//!
//! Infobox attribute names and values come from volunteer-edited wikitext and
//! exhibit inconsistent casing, stray punctuation, duplicated whitespace and,
//! for Portuguese and Vietnamese, heavy use of diacritics. The similarity
//! measures in the paper operate on *normalised* tokens, so every string that
//! enters a vector or a dictionary passes through [`normalize`] (values) or
//! [`normalize_label`] (attribute names / entity-type labels).
//!
//! [`normalize`] is defined by its general path: fold diacritics, lowercase
//! the whole string with Unicode rules, then collapse it character by
//! character. Nearly every corpus string folds to ASCII, and for those it
//! takes a fast path that folds, lowercases and collapses in one pass into
//! one buffer, with the same result. The first character that does not fold
//! to ASCII sends the whole input back to the general path, which stays the
//! only path for such input.

/// Folds Latin diacritics to their base ASCII character.
///
/// The mapping covers the characters used by Portuguese and the Vietnamese
/// quốc ngữ alphabet (including the đ/Đ letters). Characters outside the
/// table are returned unchanged, so the function is safe to apply to any
/// input.
///
/// ```
/// use wiki_text::fold_diacritics;
/// assert_eq!(fold_diacritics("direção"), "direcao");
/// assert_eq!(fold_diacritics("đạo diễn"), "dao dien");
/// assert_eq!(fold_diacritics("ngôn ngữ"), "ngon ngu");
/// ```
pub fn fold_diacritics(input: &str) -> String {
    input.chars().map(fold_char).collect()
}

/// Folds a single character to its undecorated form.
fn fold_char(c: char) -> char {
    match c {
        // Portuguese + generic Latin-1 vowels.
        'á' | 'à' | 'â' | 'ã' | 'ä' | 'ā' | 'ă' => 'a',
        'Á' | 'À' | 'Â' | 'Ã' | 'Ä' | 'Ā' | 'Ă' => 'A',
        'é' | 'è' | 'ê' | 'ë' | 'ē' | 'ĕ' => 'e',
        'É' | 'È' | 'Ê' | 'Ë' | 'Ē' | 'Ĕ' => 'E',
        'í' | 'ì' | 'î' | 'ï' | 'ī' | 'ĭ' => 'i',
        'Í' | 'Ì' | 'Î' | 'Ï' | 'Ī' | 'Ĭ' => 'I',
        'ó' | 'ò' | 'ô' | 'õ' | 'ö' | 'ō' | 'ŏ' | 'ơ' => 'o',
        'Ó' | 'Ò' | 'Ô' | 'Õ' | 'Ö' | 'Ō' | 'Ŏ' | 'Ơ' => 'O',
        'ú' | 'ù' | 'û' | 'ü' | 'ū' | 'ŭ' | 'ư' => 'u',
        'Ú' | 'Ù' | 'Û' | 'Ü' | 'Ū' | 'Ŭ' | 'Ư' => 'U',
        'ç' => 'c',
        'Ç' => 'C',
        'ñ' => 'n',
        'Ñ' => 'N',
        'ý' | 'ỳ' | 'ỹ' | 'ỷ' | 'ỵ' => 'y',
        'Ý' | 'Ỳ' | 'Ỹ' | 'Ỷ' | 'Ỵ' => 'Y',
        // Vietnamese tone marks on a.
        'ạ' | 'ả' | 'ấ' | 'ầ' | 'ẩ' | 'ẫ' | 'ậ' | 'ắ' | 'ằ' | 'ẳ' | 'ẵ' | 'ặ' => {
            'a'
        }
        'Ạ' | 'Ả' | 'Ấ' | 'Ầ' | 'Ẩ' | 'Ẫ' | 'Ậ' | 'Ắ' | 'Ằ' | 'Ẳ' | 'Ẵ' | 'Ặ' => {
            'A'
        }
        // Vietnamese tone marks on e.
        'ẹ' | 'ẻ' | 'ẽ' | 'ế' | 'ề' | 'ể' | 'ễ' | 'ệ' => 'e',
        'Ẹ' | 'Ẻ' | 'Ẽ' | 'Ế' | 'Ề' | 'Ể' | 'Ễ' | 'Ệ' => 'E',
        // Vietnamese tone marks on i.
        'ị' | 'ỉ' | 'ĩ' => 'i',
        'Ị' | 'Ỉ' | 'Ĩ' => 'I',
        // Vietnamese tone marks on o.
        'ọ' | 'ỏ' | 'ố' | 'ồ' | 'ổ' | 'ỗ' | 'ộ' | 'ớ' | 'ờ' | 'ở' | 'ỡ' | 'ợ' => {
            'o'
        }
        'Ọ' | 'Ỏ' | 'Ố' | 'Ồ' | 'Ổ' | 'Ỗ' | 'Ộ' | 'Ớ' | 'Ờ' | 'Ở' | 'Ỡ' | 'Ợ' => {
            'O'
        }
        // Vietnamese tone marks on u.
        'ụ' | 'ủ' | 'ứ' | 'ừ' | 'ử' | 'ữ' | 'ự' => 'u',
        'Ụ' | 'Ủ' | 'Ứ' | 'Ừ' | 'Ử' | 'Ữ' | 'Ự' => 'U',
        // Vietnamese đ.
        'đ' => 'd',
        'Đ' => 'D',
        other => other,
    }
}

/// Normalises an arbitrary value string: lowercase, fold diacritics, strip
/// punctuation (except digits' separators) and collapse whitespace.
///
/// ```
/// use wiki_text::normalize;
/// assert_eq!(normalize("  The LAST   Emperor! "), "the last emperor");
/// assert_eq!(normalize("Estados Unidos"), "estados unidos");
/// ```
pub fn normalize(input: &str) -> String {
    if let Some(out) = normalize_folding_to_ascii(input) {
        return out;
    }
    let folded = fold_diacritics(input).to_lowercase();
    let chars: Vec<char> = folded.chars().collect();
    let mut out = String::with_capacity(folded.len());
    let mut last_space = true;
    for (i, &c) in chars.iter().enumerate() {
        // Keep a decimal point that sits between two digits ("44.1"), but
        // treat any other '.' as a word separator ("U.S.A.").
        let decimal_point = c == '.'
            && i > 0
            && i + 1 < chars.len()
            && chars[i - 1].is_ascii_digit()
            && chars[i + 1].is_ascii_digit();
        push_collapsed(&mut out, c, decimal_point, &mut last_space);
    }
    trim_trailing_space(out)
}

/// [`normalize`] in one pass into one buffer, for input whose every
/// character folds to ASCII; `None` for any other input, which takes the
/// general path.
///
/// Over such input, lowercasing the folded string is ASCII lowercasing
/// character by character, and a neighbour of a `.` is an ASCII digit after
/// folding exactly when it is one before (the fold table maps letters to
/// letters), so the result is the general path's. Other input may lowercase
/// by context (`Σ` at a word end), grow a character into two (`İ`) or turn
/// a non-ASCII character into an ASCII one (U+212A KELVIN SIGN).
fn normalize_folding_to_ascii(input: &str) -> Option<String> {
    let mut out = String::with_capacity(input.len());
    let mut last_space = true;
    let mut after_digit = false;
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        let c = fold_char(c);
        if !c.is_ascii() {
            return None;
        }
        let c = c.to_ascii_lowercase();
        let decimal_point =
            c == '.' && after_digit && chars.peek().is_some_and(char::is_ascii_digit);
        after_digit = c.is_ascii_digit();
        push_collapsed(&mut out, c, decimal_point, &mut last_space);
    }
    Some(trim_trailing_space(out))
}

/// Appends one folded, lowercased character as [`normalize`] maps it:
/// alphanumerics and kept decimal points as themselves, whitespace and
/// separators as a single space (none at the start, none after a space),
/// anything else not at all.
fn push_collapsed(out: &mut String, c: char, decimal_point: bool, last_space: &mut bool) {
    if c.is_alphanumeric() || decimal_point {
        out.push(c);
        *last_space = false;
    } else if (c.is_whitespace() || is_separator(c)) && !*last_space {
        out.push(' ');
        *last_space = true;
    }
}

fn trim_trailing_space(mut out: String) -> String {
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Punctuation that should act as a word separator rather than be dropped.
fn is_separator(c: char) -> bool {
    matches!(
        c,
        '-' | '_' | '/' | ',' | ';' | ':' | '|' | '(' | ')' | '[' | ']' | '{' | '}' | '.'
    )
}

/// Normalises an attribute name or entity-type label.
///
/// Labels are treated slightly differently from values: underscores (common
/// in template parameter names such as `birth_date`) become spaces and
/// trailing numbering used by repeated template parameters (`starring2`) is
/// removed.
///
/// ```
/// use wiki_text::normalize_label;
/// assert_eq!(normalize_label("Birth_Date"), "birth date");
/// assert_eq!(normalize_label("starring2"), "starring");
/// assert_eq!(normalize_label("Elenco original"), "elenco original");
/// ```
pub fn normalize_label(input: &str) -> String {
    let base = normalize(input);
    // Strip a trailing repetition counter ("starring 2" or "starring2").
    let trimmed = base.trim_end_matches(|c: char| c.is_ascii_digit());
    let trimmed = trimmed.trim_end();
    if trimmed.is_empty() {
        base
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_portuguese_diacritics() {
        assert_eq!(fold_diacritics("gênero"), "genero");
        assert_eq!(fold_diacritics("cônjuge"), "conjuge");
        assert_eq!(fold_diacritics("lançamento"), "lancamento");
        assert_eq!(fold_diacritics("prêmios"), "premios");
    }

    #[test]
    fn folds_vietnamese_diacritics() {
        assert_eq!(fold_diacritics("đạo diễn"), "dao dien");
        assert_eq!(fold_diacritics("diễn viên"), "dien vien");
        assert_eq!(fold_diacritics("kịch bản"), "kich ban");
        assert_eq!(fold_diacritics("nơi sinh"), "noi sinh");
        assert_eq!(fold_diacritics("thể loại"), "the loai");
    }

    #[test]
    fn normalize_collapses_whitespace_and_punctuation() {
        assert_eq!(normalize("Directed   by:"), "directed by");
        assert_eq!(normalize("running-time"), "running time");
        assert_eq!(normalize("  "), "");
        assert_eq!(normalize("U.S.A."), "u s a");
    }

    #[test]
    fn normalize_keeps_digits() {
        assert_eq!(normalize("165 minutes"), "165 minutes");
        assert_eq!(normalize("1987-12-18"), "1987 12 18");
    }

    #[test]
    fn labels_lose_repetition_counters() {
        assert_eq!(normalize_label("starring3"), "starring");
        assert_eq!(normalize_label("starring 12"), "starring");
        // A purely numeric label is preserved rather than emptied.
        assert_eq!(normalize_label("2010"), "2010");
    }

    #[test]
    fn normalize_is_idempotent() {
        for s in ["Direção", "đạo diễn", "Birth_Date", "The Last Emperor"] {
            let once = normalize(s);
            assert_eq!(normalize(&once), once);
        }
    }
}
