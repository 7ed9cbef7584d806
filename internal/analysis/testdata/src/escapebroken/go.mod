module escapebroken

go 1.24
