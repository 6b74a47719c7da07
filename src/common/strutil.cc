#include "common/strutil.hh"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdint>
#include <limits>

namespace pipesim
{

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(trim(s.substr(start)));
            break;
        }
        out.emplace_back(trim(s.substr(start, pos - start)));
        start = pos + 1;
    }
    return out;
}

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<std::int64_t>
parseInt(std::string_view s)
{
    s = trim(s);
    if (s.empty())
        return std::nullopt;

    bool neg = false;
    if (s.front() == '-' || s.front() == '+') {
        neg = s.front() == '-';
        s.remove_prefix(1);
        if (s.empty())
            return std::nullopt;
    }

    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        base = 16;
        s.remove_prefix(2);
    } else if (s.size() > 2 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) {
        base = 2;
        s.remove_prefix(2);
    }
    if (s.empty())
        return std::nullopt;

    // Accumulate the magnitude unsigned and reject it once it passes
    // the int64 range (INT64_MIN's magnitude is one more than
    // INT64_MAX's), instead of wrapping.
    const std::uint64_t limit =
        std::uint64_t(std::numeric_limits<std::int64_t>::max()) + neg;
    std::uint64_t value = 0;
    for (char c : s) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return std::nullopt;
        if (digit >= base)
            return std::nullopt;
        if (value > (limit - std::uint64_t(digit)) / std::uint64_t(base))
            return std::nullopt;
        value = value * std::uint64_t(base) + std::uint64_t(digit);
    }
    // Two's-complement negation of the magnitude, done unsigned.
    return std::int64_t(neg ? 0 - value : value);
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out(len > 0 ? static_cast<std::size_t>(len) : 0, '\0');
    if (len > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

} // namespace pipesim
