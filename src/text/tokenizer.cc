#include "text/tokenizer.h"

namespace metablink::text {

namespace {
// The classes std::isalnum, std::ispunct and std::tolower give in the "C"
// locale, the one a program that never calls setlocale runs in: ASCII
// only, every byte >= 0x80 in no class. Spelled out, they make no library
// call per byte and do not follow a locale a host program might set.
bool IsAlnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

bool IsPunct(char c) { return c >= '!' && c <= '~' && !IsAlnum(c); }

char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool IsWordChar(char c) { return IsAlnum(c) || c == '\'' || c == '_'; }
}  // namespace

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  TokenizeInto(text, &tokens);
  return tokens;
}

void Tokenizer::TokenizeInto(std::string_view text,
                             std::vector<std::string>* out) const {
  std::size_t n = 0;
  const auto next = [&]() -> std::string& {
    if (n == out->size()) out->emplace_back();
    return (*out)[n++];
  };
  std::size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (IsWordChar(c)) {
      std::size_t start = i;
      while (i < text.size() && IsWordChar(text[i])) ++i;
      std::string& tok = next();
      tok.assign(text.substr(start, i - start));
      if (options_.lowercase) {
        for (char& t : tok) t = ToLower(t);
      }
    } else {
      if (options_.keep_punctuation && IsPunct(c)) {
        next().assign(1, c);
      }
      ++i;
    }
  }
  out->resize(n);
}

std::string NormalizeForMatch(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool last_space = true;
  for (char c : text) {
    if (IsAlnum(c)) {
      out += ToLower(c);
      last_space = false;
    } else if (!last_space) {
      out += ' ';
      last_space = true;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string StripDisambiguation(std::string_view title, std::string* phrase) {
  if (phrase != nullptr) phrase->clear();
  if (title.empty() || title.back() != ')') return std::string(title);
  std::size_t open = title.rfind('(');
  if (open == std::string_view::npos || open == 0) return std::string(title);
  // Require a space before '(' so "F(x)" style titles are untouched.
  if (title[open - 1] != ' ') return std::string(title);
  if (phrase != nullptr) {
    *phrase = std::string(title.substr(open + 1, title.size() - open - 2));
  }
  std::size_t end = open - 1;
  while (end > 0 && title[end - 1] == ' ') --end;
  return std::string(title.substr(0, end));
}

}  // namespace metablink::text
