package aspen

import (
	"strconv"
	"strings"
	"unicode"
)

// Lexer turns extended-Aspen source text into tokens. It supports //- and
// /* */-style comments, decimal and scientific-notation numbers with
// optional K/M/G binary-magnitude suffixes, double-quoted strings, and the
// punctuation of the grammar.
type Lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1, col: 1}
}

func (l *Lexer) at(offset int) rune {
	if l.pos+offset >= len(l.src) {
		return 0
	}
	return l.src[l.pos+offset]
}

func (l *Lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) here() Pos { return Pos{Line: l.line, Col: l.col} }

// skipTrivia consumes whitespace and comments; it reports unterminated
// block comments.
func (l *Lexer) skipTrivia() error {
	for l.pos < len(l.src) {
		switch {
		case unicode.IsSpace(l.at(0)):
			l.advance()
		case l.at(0) == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.at(0) != '\n' {
				l.advance()
			}
		case l.at(0) == '/' && l.at(1) == '*':
			start := l.here()
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return errAt(start, "unterminated block comment")
				}
				if l.at(0) == '*' && l.at(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// magnitudeSuffix returns the multiplier of a K/M/G suffix, or 1.
func magnitudeSuffix(r rune) (float64, bool) {
	switch r {
	case 'K', 'k':
		return 1 << 10, true
	case 'M':
		return 1 << 20, true
	case 'G':
		return 1 << 30, true
	}
	return 1, false
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipTrivia(); err != nil {
		return Token{}, err
	}
	pos := l.here()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	r := l.at(0)
	switch {
	case unicode.IsLetter(r) || r == '_':
		var sb strings.Builder
		for l.pos < len(l.src) && (unicode.IsLetter(l.at(0)) || unicode.IsDigit(l.at(0)) || l.at(0) == '_') {
			sb.WriteRune(l.advance())
		}
		return Token{Kind: TokIdent, Text: sb.String(), Pos: pos}, nil

	case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.at(1))):
		var sb strings.Builder
		seenExp := false
		for l.pos < len(l.src) {
			c := l.at(0)
			if unicode.IsDigit(c) || c == '.' {
				sb.WriteRune(l.advance())
				continue
			}
			if (c == 'e' || c == 'E') && !seenExp &&
				(unicode.IsDigit(l.at(1)) || ((l.at(1) == '+' || l.at(1) == '-') && unicode.IsDigit(l.at(2)))) {
				seenExp = true
				sb.WriteRune(l.advance())
				if l.at(0) == '+' || l.at(0) == '-' {
					sb.WriteRune(l.advance())
				}
				continue
			}
			break
		}
		text := sb.String()
		num, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errAt(pos, "malformed number %q", text)
		}
		if mul, ok := magnitudeSuffix(l.at(0)); ok {
			// A magnitude suffix must not be followed by more identifier
			// characters (e.g. "4Kb" is an error, "4K" is 4096).
			next := l.at(1)
			if !(unicode.IsLetter(next) || unicode.IsDigit(next) || next == '_') {
				l.advance()
				num *= mul
				text += "K"
			}
		}
		return Token{Kind: TokNumber, Text: text, Num: num, Pos: pos}, nil

	case r == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) || l.at(0) == '\n' {
				return Token{}, errAt(pos, "unterminated string literal")
			}
			c := l.advance()
			if c == '"' {
				break
			}
			sb.WriteRune(c)
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: pos}, nil
	}

	l.advance()
	kind, ok := map[rune]TokenKind{
		'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
		',': TokComma, ':': TokColon, '=': TokAssign,
		'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash,
		'%': TokPercent, '^': TokCaret,
	}[r]
	if !ok {
		return Token{}, errAt(pos, "unexpected character %q", string(r))
	}
	return Token{Kind: kind, Text: string(r), Pos: pos}, nil
}
